package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresSelection(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no selection accepted")
	}
}

func TestRunFigure9Small(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var out strings.Builder
	err := run([]string{"-fig", "9", "-groups", "2", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Figure 9", "call-forwarding", "ctxUseRate", "D-BAD", "D-ALL"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-fig", "9", "-groups", "1", "-csv", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "call-forwarding.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "app,errRate,strategy") {
		t.Fatalf("csv malformed:\n%s", data)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunAllDigest pins the paper's evaluation output byte for byte: the
// SHA-256 of both figure CSVs, and of stdout without the lines naming the
// temporary CSV paths, for `-all -groups 1 -seed 7`. The run is
// deterministic, so any change to the checker, the strategies, the
// situation layer or the experiment runner that moves one number of
// Figure 9, Figure 10, the case study or the ablations fails here.
func TestRunAllDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const (
		wantCallForwarding = "4a86612958732bd74aafef3a3a5a8757acdb78120cc3cdbb8e26ca7a639fc16a"
		wantRFID           = "1e6a36fba23b02741b6386b991abac4ad673cbd0e72ea2af3a48f0f625891a87"
		wantStdout         = "2f69203e7c273eec059ef2bf9b6633354ad47f3619e6fe17434230a7ac7adc1b"
	)
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-all", "-groups", "1", "-seed", "7", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(line, "csv written to ") {
			stdout.WriteString(line)
		}
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, c := range []struct{ file, want string }{
		{"call-forwarding.csv", wantCallForwarding},
		{"rfid.csv", wantRFID},
	} {
		data, err := os.ReadFile(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(data); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.file, got, c.want)
		}
	}
	if got := digest([]byte(stdout.String())); got != wantStdout {
		t.Errorf("stdout sha256 = %s, want %s\n%s", got, wantStdout, stdout.String())
	}
}
