// Command dlbsvc is the multi-tenant cluster front door: one long-lived
// process that owns a shared pool of slave daemons and serves the job API
// over HTTP (submit, status, result, cancel, /statsz). Jobs are compiled
// plans shipped as source + directive, scheduled by priority class and
// weighted tenant fairness; high-priority submissions preempt running
// lower-priority jobs through the checkpoint machinery.
//
// Usage:
//
//	dlbsvc -slaves 127.0.0.1:7101,127.0.0.1:7102   # lease external dlbd daemons
//	dlbsvc -pool 4                                  # spawn an in-process pool (dev mode)
//
// On startup it prints "dlbsvc listening <addr>" on stdout; harnesses
// parse that line when -listen uses port 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netrun"
	"repro/internal/svc"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listener address for the job API")
	slaves := flag.String("slaves", "", "comma-separated dlbd addresses forming the shared pool")
	pool := flag.Int("pool", 0, "spawn this many in-process slave daemons instead of -slaves (dev mode)")
	drag := flag.Float64("drag", 1.0, "slow in-process pool daemons by this factor (dev mode)")
	maxQueue := flag.Int("max-queue", 64, "waiting-set bound; submissions beyond it get 429")
	weights := flag.String("weights", "", `per-tenant fairness weights, e.g. "alice=2,bob=1"`)
	grace := flag.Duration("grace", 30*time.Second, "how long shutdown waits for running jobs to checkpoint and release")
	quiet := flag.Bool("quiet", false, "suppress event logging on stderr")
	flag.Parse()

	logf := log.New(os.Stderr, "dlbsvc: ", log.Ltime|log.Lmicroseconds).Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dlbsvc:", err)
		os.Exit(1)
	}

	var addrs []string
	var inproc []*netrun.Server
	switch {
	case *pool > 0 && *slaves != "":
		fail(fmt.Errorf("-pool and -slaves are mutually exclusive"))
	case *pool > 0:
		for i := 0; i < *pool; i++ {
			srv, err := netrun.NewServer(netrun.ServerOptions{Drag: *drag})
			if err != nil {
				fail(err)
			}
			go srv.Serve()
			inproc = append(inproc, srv)
			addrs = append(addrs, srv.Addr())
		}
		logf("spawned %d in-process slave daemons", *pool)
	case *slaves != "":
		for _, a := range strings.Split(*slaves, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	default:
		fail(fmt.Errorf("need a pool: -slaves addr,addr or -pool N"))
	}

	w := map[string]float64{}
	if *weights != "" {
		for _, kv := range strings.Split(*weights, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				fail(fmt.Errorf("bad -weights entry %q", kv))
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 {
				fail(fmt.Errorf("bad weight %q", kv))
			}
			w[name] = f
		}
	}

	service, err := svc.New(svc.Options{
		Addrs:    addrs,
		MaxQueue: *maxQueue,
		Weights:  w,
		Logf:     logf,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dlbsvc listening %s\n", ln.Addr())
	hs := &http.Server{Handler: service.Handler()}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		logf("shutting down (grace %v)", *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		hs.Shutdown(ctx)
		service.Close() // preempts running jobs at their next checkpoint
		for _, srv := range inproc {
			srv.Close()
		}
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	<-drained // Serve returns as soon as the listener closes; wait out the drain
}
