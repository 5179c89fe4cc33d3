//go:build linux

package netkit

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestFinalFrameCarriesFIN: a final frame half-closes the connection in
// its own write, so the client reads the whole frame and then EOF while
// the owner still holds the Conn open, and the Conn has already left the
// plane's live count. A frame that is not final gives no EOF until Close.
func TestFinalFrameCarriesFIN(t *testing.T) {
	const (
		hold   = 500 * time.Millisecond // the owner's wait before Close
		prompt = 100 * time.Millisecond // the FIN's allowance after the frame
	)
	f, body := sharedFile(t, 64<<10)
	hd := head(len(body))
	want := append(append([]byte(nil), hd...), body...)
	writeVec := func(c *Conn) error { return c.WriteVec(hd, body) }
	cases := []struct {
		name  string
		final bool
		write func(*Conn) error
	}{
		{"WriteVec", true, writeVec},
		{"SendFile", true, func(c *Conn) error { return c.SendFile(hd, f, int64(len(body))) }},
		{"Write", true, func(c *Conn) error { _, err := c.Write(want); return err }},
		{"NotFinal", false, writeVec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			closed := make(chan struct{})
			p, stop := startPlane(t, Config{Admit: func(c *Conn) error {
				go func() {
					defer close(closed)
					if tc.final {
						c.FinalFrame()
					}
					if err := tc.write(c); err != nil {
						t.Error(err)
					}
					time.Sleep(hold)
					c.Close()
				}()
				return nil
			}})
			defer stop()
			client, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
			got := make([]byte, len(want))
			if _, err := io.ReadFull(client, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("frame: read %d bytes, %v; want the %d-byte frame", len(got), err, len(want))
			}
			_ = client.SetReadDeadline(time.Now().Add(prompt))
			n, err := client.Read(make([]byte, 1))
			switch {
			case tc.final && (n != 0 || err != io.EOF):
				t.Errorf("after a final frame: read %d, %v; want EOF within %v, before Close", n, err, prompt)
			case tc.final && p.Stats().Live != 0:
				t.Errorf("live = %d after the final frame's FIN, want 0", p.Stats().Live)
			case !tc.final && !errors.Is(err, os.ErrDeadlineExceeded):
				t.Errorf("after a frame that is not final: read %d, %v; want no EOF before Close", n, err)
			}
			<-closed
		})
	}
}
