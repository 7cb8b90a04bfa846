package main

import (
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
