// Command dlbd is the slave daemon of the distributed TCP runtime: one
// process per (virtual) workstation. It listens for a master's handshake,
// compiles the shipped program, runs the slave loop over real sockets, and
// keeps serving runs until terminated. Peers connect directly for work
// movement and boundary exchange — data never relays through the master.
//
// Usage:
//
//	dlbd -listen 127.0.0.1:7101 [-advertise host:port] [-drag 2.5] [-quiet]
//	dlbd -join 127.0.0.1:7100   # volunteer into a running master mid-run
//
// On startup the daemon prints "dlbd listening <addr>" on stdout; harnesses
// parse that line to learn the bound address when -listen uses port 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/netrun"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "listener address (masters handshake here, peers exchange work)")
	advertise := flag.String("advertise", "", "address peers should dial (default: the bound address)")
	join := flag.String("join", "", "master join listener to volunteer into at startup (elastic join)")
	drag := flag.Float64("drag", 1.0, "slow this daemon's computation by the given factor (emulated loaded machine)")
	kernel := flag.String("kernel", "", `pin this daemon's execution tier: "kernel" (the VM) or "aot" (native); empty uses the master's setting (if that is empty too, native where the build pays for itself, else the VM)`)
	grace := flag.Duration("grace", 30*time.Second, "how long SIGTERM waits for an in-flight run to drain before forcing teardown")
	quiet := flag.Bool("quiet", false, "suppress event logging on stderr")
	flag.Parse()

	logf := log.New(os.Stderr, "dlbd: ", log.Ltime|log.Lmicroseconds).Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	srv, err := netrun.NewServer(netrun.ServerOptions{
		Listen:    *listen,
		Advertise: *advertise,
		Join:      *join,
		Drag:      *drag,
		Kernel:    *kernel,
		Logf:      logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbd:", err)
		os.Exit(1)
	}
	fmt.Printf("dlbd listening %s\n", srv.Addr())

	// First signal: graceful — stop accepting runs, drain the in-flight
	// session (peer frames keep flowing through the still-open listener),
	// then close. A second signal forces immediate teardown.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logf("shutting down (draining, grace %v; signal again to force)", *grace)
		go func() {
			<-sig
			logf("forced shutdown")
			srv.Close()
		}()
		srv.Shutdown(*grace)
	}()
	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "dlbd:", err)
		os.Exit(1)
	}
}
