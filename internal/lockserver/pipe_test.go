package lockserver_test

import (
	"bytes"
	"net"
	"testing"

	"hierlock"
	"hierlock/internal/lockserver"
)

// pipeConn serves one connection of a fresh one-member cluster's line
// server over net.Pipe and returns the client end.
func pipeConn(tb testing.TB) net.Conn {
	tb.Helper()
	cl, err := hierlock.NewCluster(1)
	if err != nil {
		tb.Fatal(err)
	}
	srv := lockserver.New(cl.Member(0))
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeConn(server)
	}()
	tb.Cleanup(func() {
		_ = client.Close()
		<-served
		_ = srv.Close()
		cl.Close()
	})
	return client
}

// roundTrip writes one command line and reads its reply into buf without
// allocating: the client side of an allocation count must add nothing.
func roundTrip(tb testing.TB, c net.Conn, line, buf []byte) []byte {
	if _, err := c.Write(line); err != nil {
		tb.Fatal(err)
	}
	n := 0
	for bytes.IndexByte(buf[:n], '\n') < 0 {
		k, err := c.Read(buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		n += k
	}
	return buf[:n]
}

var (
	lockK   = []byte("LOCK k W\n")
	unlockK = []byte("UNLOCK k\n")
	okK     = []byte("OK k W fence=")
	ok      = []byte("OK\n")
)

// lockUnlock runs one LOCK k W / UNLOCK k pair over c.
func lockUnlock(tb testing.TB, c net.Conn, buf []byte) {
	if r := roundTrip(tb, c, lockK, buf); !bytes.HasPrefix(r, okK) {
		tb.Fatalf("LOCK k W -> %q", r)
	}
	if r := roundTrip(tb, c, unlockK, buf); !bytes.Equal(r, ok) {
		tb.Fatalf("UNLOCK k -> %q", r)
	}
}

// BenchmarkServeConnLockUnlock: a resident LOCK/UNLOCK pair on one
// connection, client and server in one process over net.Pipe — the line
// server's parse, session and reply cost on top of the member's pair.
func BenchmarkServeConnLockUnlock(b *testing.B) {
	c := pipeConn(b)
	buf := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lockUnlock(b, c, buf)
	}
}
