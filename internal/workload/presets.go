package workload

// YCSB-style presets. The paper evaluates with the YCSB default skew
// (alpha = 0.99) and write ratios from 0 to 5%; these presets name the
// standard workload mixes for convenience in examples and benchmarks.

// Preset names.
const (
	// YCSBA is the update-heavy mix: 50% reads, 50% writes.
	YCSBA = "ycsb-a"
	// YCSBB is the read-mostly mix: 95% reads, 5% writes.
	YCSBB = "ycsb-b"
	// YCSBC is read-only.
	YCSBC = "ycsb-c"
	// Facebook uses the 0.2% write ratio the paper cites from TAO.
	Facebook = "facebook"
	// PaperDefault is the paper's headline configuration: alpha = 0.99,
	// 1% writes, 40-byte values.
	PaperDefault = "paper-default"
	// WriteHeavy drives the consistency plane hard: 50% puts at the paper's
	// default skew. Unlike YCSB-A (same mix) it exists as the named stress
	// workload for the write fan-out — every hot-key put broadcasts
	// updates (SC) or invalidations+acks+updates (Lin) to all peers, so
	// this is the regime where Figure 11's message-count argument bites and
	// consistency coalescing pays off.
	WriteHeavy = "write-heavy"
	// ContendedCounter is the RMW stress mix: very high skew (alpha = 1.01,
	// the paper's most skewed setting) with 30% atomic fetch-and-adds and a
	// trickle of plain writes, so contention concentrates on a handful of
	// hot counters — exactly the traffic the serialized RMW path absorbs.
	// Values are 8 bytes (the counter encoding).
	ContendedCounter = "contended-counter"
)

// Preset returns the named workload configuration over numKeys keys, or
// false if the name is unknown. Callers may adjust Seed and ValueSize.
func Preset(name string, numKeys uint64) (Config, bool) {
	base := Config{
		NumKeys:   numKeys,
		Alpha:     DefaultAlpha,
		ValueSize: DefaultValueSize,
	}
	switch name {
	case YCSBA:
		base.WriteRatio = 0.5
	case YCSBB:
		base.WriteRatio = 0.05
	case YCSBC:
		base.WriteRatio = 0
	case Facebook:
		base.WriteRatio = 0.002
	case PaperDefault:
		base.WriteRatio = 0.01
	case WriteHeavy:
		base.WriteRatio = 0.5
	case ContendedCounter:
		base.Alpha = 1.01
		base.RMWFrac = 0.3
		base.WriteRatio = 0.01
		// 8-byte values: every key stores a valid counter encoding, so any
		// key the skew lands an FAA on is addable.
		base.ValueSize = 8
	default:
		return Config{}, false
	}
	return base, true
}

// Presets lists the known preset names.
func Presets() []string {
	return []string{YCSBA, YCSBB, YCSBC, Facebook, PaperDefault, WriteHeavy, ContendedCounter}
}
