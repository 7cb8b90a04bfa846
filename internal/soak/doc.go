// Package soak holds the long-running chaos harness for the daemon
// serving path. The package has no library code: TestSoakStorm (in
// soak_test.go) drives a live server through overload bursts, a flapping
// corrupted source, poisoned checks, and transport chaos, then asserts
// the resilience machinery — admission control, per-source circuit
// breakers, and check watchdogs — shed load with typed errors and
// recovered cleanly.
//
// By default the storm lasts a couple of seconds so the test rides along
// with the regular suite. `make soak` sets CTXRES_SOAK to a multi-minute
// duration and runs it under the race detector.
package soak
