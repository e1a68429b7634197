package main

import (
	"bytes"
	"strings"
	"testing"
)

// exec runs the CLI with args and returns exit code, stdout and stderr.
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListPrintsExperimentIDs(t *testing.T) {
	code, out, _ := exec(t, "-list")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, id := range []string{"ablation-coalesce", "ablation-serialization"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list output missing %q:\n%s", id, out)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := exec(t, "-definitely-not-a-flag"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := exec(t, "-h"); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	code, _, errb := exec(t)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb, "Usage") && !strings.Contains(errb, "-fig") {
		t.Fatalf("no usage text on stderr:\n%s", errb)
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	code, _, errb := exec(t, "-fig", "no-such-figure")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown experiment") {
		t.Fatalf("missing diagnostic:\n%s", errb)
	}
}

func TestAnalyticExperimentRenders(t *testing.T) {
	code, out, errb := exec(t, "-fig", "ablation-coalesce")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "ablation-coalesce") {
		t.Fatalf("table missing header:\n%s", out)
	}
}
