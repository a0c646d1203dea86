package main

import (
	"bufio"
	"io"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDaemonE2E builds the real binary, starts it on an ephemeral
// port, waits for readiness, runs one solve over the wire, sends
// SIGTERM, and requires a clean drain with exit code 0.
func TestDaemonE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("e2e: go toolchain not in PATH")
	}

	bin := filepath.Join(t.TempDir(), "fdrepaird")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "10s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// First line announces the bound address; collect the rest for the
	// drain assertions.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("daemon exited before announcing its address: %v", sc.Err())
	}
	first := sc.Text()
	const marker = "listening on "
	i := strings.Index(first, marker)
	if i < 0 {
		t.Fatalf("unexpected first line %q", first)
	}
	addr := strings.TrimSpace(first[i+len(marker):])
	var rest strings.Builder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	ready := false
	for i := 0; i < 100 && !ready; i++ {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		if !ready {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ready {
		t.Fatal("daemon never became ready")
	}

	resp, err := client.Post(
		base+"/solve?"+url.Values{"fd": {"A -> B"}}.Encode(),
		"text/csv",
		strings.NewReader("id,A,B,w\n1,a1,x,1\n2,a1,y,1\n3,a2,z,1\n"),
	)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve over the wire: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Repair-Cost") != "1" {
		t.Fatalf("X-Repair-Cost = %q", resp.Header.Get("X-Repair-Cost"))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Wait closes the stdout pipe, so the reader must reach EOF
		// first or the drain log can be lost.
		wg.Wait()
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
	if !strings.Contains(rest.String(), "drained cleanly") {
		t.Fatalf("drain log missing:\n%s", rest.String())
	}
}
