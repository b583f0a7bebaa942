package main

import (
	"os"
	"testing"
)

// TestMain lets a test binary stand in for the perfbench command when
// a run spawns its untraced pass (or a test spawns a whole run) as a
// child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}
