// Command fdrepaird serves optimal-repair computation over HTTP: a
// fault-tolerant daemon over the fdrepair batch/stream engine with
// per-request panic isolation, admission control (bounded queue,
// per-tenant token buckets, load shedding), per-request deadlines with
// optional exact→approx degradation, Prometheus metrics, and graceful
// drain on SIGTERM. See the package README for the HTTP API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/solve/failpoint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse flags, serve until SIGTERM or
// SIGINT, drain, exit. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdrepaird", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "solver worker budget")
		queue       = fs.Int("queue", 64, "max concurrently admitted solve requests; beyond this, shed with 429")
		tenantRate  = fs.Float64("tenant-rate", 0, "per-tenant sustained requests/second (0 = unlimited)")
		tenantBurst = fs.Float64("tenant-burst", 10, "per-tenant burst allowance")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 5*time.Minute, "ceiling for client-requested timeouts (0 = no ceiling)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget after SIGTERM")
		approx      = fs.Duration("approx-fallback", 0, "degrade exact solves to the 2-approximation after this budget (0 = off)")
		maxBody     = fs.Int64("max-body", 64<<20, "max request body bytes; longer bodies are refused with 413")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fault injection is opt-in via the environment so production
	// binaries carry the hooks disarmed (one atomic load per block).
	if env := os.Getenv(failpoint.EnvVar); env != "" {
		names, err := failpoint.EnableFromEnv(env)
		if err != nil {
			fmt.Fprintf(stderr, "fdrepaird: %s: %v\n", failpoint.EnvVar, err)
			return 2
		}
		fmt.Fprintf(stderr, "fdrepaird: failpoints armed: %v\n", names)
	}

	srv := newServer(config{
		workers:        *workers,
		queueDepth:     *queue,
		tenantRate:     *tenantRate,
		tenantBurst:    *tenantBurst,
		defaultTimeout: *timeout,
		maxTimeout:     *maxTimeout,
		approxFallback: *approx,
		maxBody:        *maxBody,
		logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "fdrepaird: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.routes()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// The e2e smoke test and operators parse this line; keep it stable.
	fmt.Fprintf(stdout, "fdrepaird: listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "fdrepaird: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain: stop admitting (readyz flips 503), let in-flight requests
	// finish within the budget, then quiesce the solver.
	fmt.Fprintf(stdout, "fdrepaird: draining (budget %s)\n", *drain)
	srv.startDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "fdrepaird: shutdown: %v\n", err)
		hs.Close()
		code = 1
	}
	if err := srv.sv.Close(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(stderr, "fdrepaird: solver close: %v\n", err)
		code = 1
	} else if err != nil {
		fmt.Fprintf(stderr, "fdrepaird: solver close: drain budget exceeded\n")
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(stdout, "fdrepaird: drained cleanly")
	}
	return code
}
