//go:build race

package fabric

// raceBuild reports whether this binary was built with the race detector —
// the build where debug aids (delivered-frame poisoning) are on.
const raceBuild = true
