//go:build linux && !386

package netkit

import (
	"bufio"
	"context"
	"flag"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestAcceptAllocationsPerConnection pins what a connection costs the
// heap: the socket's *os.File, its inner file and its RawConn, with
// the rest of the Conn pooled. The clients dial into the listen backlog
// before Start, so their own allocations fall outside the measured
// window, which covers Start and the accept, one vectored response and
// the close of every connection. Accepting with the standard library
// and writing through net.Buffers cost about 9.
func TestAcceptAllocationsPerConnection(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under -race; the budget is asserted in the normal build")
	}
	const n = 256
	var served sync.WaitGroup
	served.Add(n)
	hd, body := head(2), []byte("ok")
	p, err := Listen(Config{Admit: func(c *Conn) error {
		if err := c.WriteVec(hd, body); err != nil {
			t.Error(err)
		}
		c.Close()
		served.Done()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(context.Background())
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	served.Wait()
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 3.5 {
		t.Errorf("accept allocates %.2f objects per connection, want <= 3.5", per)
	} else {
		t.Logf("%.2f allocations per connection", per)
	}
}

// TestAcceptedSocketOptions: an accepted socket carries the options the
// standard library's accept sets — TCP_NODELAY and keep-alive probes
// at 15 s idle, 15 s apart, 9 of them.
func TestAcceptedSocketOptions(t *testing.T) {
	admitted := make(chan *Conn, 1)
	p, stop := startPlane(t, Config{Admit: func(c *Conn) error { admitted <- c; return nil }})
	defer stop()
	client, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c := <-admitted
	defer c.Close()

	want := []struct {
		name       string
		level, opt int
		val        int
	}{
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{"TCP_KEEPIDLE", syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
		{"TCP_KEEPCNT", syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
	}
	if err := c.rc.Control(func(fd uintptr) {
		for _, o := range want {
			got, err := syscall.GetsockoptInt(int(fd), o.level, o.opt)
			if err != nil || got != o.val {
				t.Errorf("%s = %d (%v), want %d", o.name, got, err, o.val)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if a, ok := c.NetConn().RemoteAddr().(*net.TCPAddr); !ok || a.String() != client.LocalAddr().String() {
		t.Errorf("RemoteAddr = %v, want %v", c.NetConn().RemoteAddr(), client.LocalAddr())
	}
	if a := c.NetConn().LocalAddr(); a == nil || a.String() != p.Addr() {
		t.Errorf("LocalAddr = %v, want %v", a, p.Addr())
	}
}

// exhaustChild is the argument that makes a re-executed test binary run
// TestAcceptSurvivesDescriptorExhaustion's body in its own process.
const exhaustChild = "accept-exhaustion-child"

// TestAcceptSurvivesDescriptorExhaustion: an accept that fails for want
// of a descriptor (EMFILE) leaves the connection in the backlog, and the
// accept loop backs off and takes it once descriptors free up, instead
// of exiting with the server still up. The body lowers its process's
// own descriptor limit, so it runs in a re-executed child that no other
// test shares.
func TestAcceptSurvivesDescriptorExhaustion(t *testing.T) {
	if flag.Arg(0) == exhaustChild {
		acceptUnderExhaustion(t)
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestAcceptSurvivesDescriptorExhaustion$", "-test.v", exhaustChild).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

func acceptUnderExhaustion(t *testing.T) {
	p, stop := startPlane(t, Config{Admit: func(c *Conn) error {
		_, err := c.Write([]byte("ok\n"))
		return err // the conn stays open until shutdown
	}})
	defer stop()

	// Cap the soft limit a little above what is open, then hold every
	// descriptor left but one.
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	lim.Cur = uint64(len(fds) + 8)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	var held []*os.File
	for {
		f, err := os.Open(os.DevNull)
		if err != nil {
			break
		}
		held = append(held, f)
	}
	if len(held) == 0 {
		t.Fatal("the lowered limit left no descriptor to hold")
	}
	held[len(held)-1].Close()
	held = held[:len(held)-1]

	// The client takes the last descriptor, so the plane's accept fails.
	client, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	time.Sleep(100 * time.Millisecond)
	if got := p.Stats().Accepted; got != 0 {
		t.Fatalf("accepted %d connections with no descriptor free", got)
	}

	for _, f := range held {
		f.Close()
	}
	expectServed := func(c net.Conn) {
		t.Helper()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if line, err := bufio.NewReader(c).ReadString('\n'); err != nil || line != "ok\n" {
			t.Fatalf("after descriptors freed up: read %q, %v", line, err)
		}
	}
	expectServed(client)
	fresh, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	expectServed(fresh)
}
