package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestQueryAgainstScid builds scid and sciquery, starts scid, and runs
// sciquery against the server id and address scid prints: the pattern
// query's answer must name both of scid's printers.
func TestQueryAgainstScid(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/scid and cmd/sciquery; skipped in -short")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "sci/cmd/scid", "sci/cmd/sciquery")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	scid := exec.Command(filepath.Join(dir, "scid"))
	stdout, err := scid.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := scid.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- scid.Wait() }()
	defer func() {
		_ = scid.Process.Signal(os.Interrupt)
		select {
		case err := <-exited:
			if err != nil {
				t.Errorf("scid exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			_ = scid.Process.Kill()
			t.Error("scid did not stop on interrupt")
		}
	}()

	var server, addr string
	lines := bufio.NewScanner(stdout)
	for (server == "" || addr == "") && lines.Scan() {
		key, val, _ := strings.Cut(strings.TrimSpace(lines.Text()), ":")
		switch key {
		case "server id":
			server = strings.TrimSpace(val)
		case "address":
			addr = strings.TrimSpace(val)
		}
	}
	if server == "" || addr == "" {
		t.Fatalf("scid printed no server id and address (%v)", lines.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	query := exec.CommandContext(ctx, filepath.Join(dir, "sciquery"),
		"-server", server, "-addr", addr, "what=pattern:printer.status mode=profile")
	out, err := query.CombinedOutput()
	if err != nil {
		t.Fatalf("sciquery: %v\n%s", err, out)
	}
	for _, name := range []string{`"P1"`, `"P2"`} {
		if !strings.Contains(string(out), name) {
			t.Fatalf("answer does not name %s:\n%s", name, out)
		}
	}
}
