package lockserver

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"hierlock"
)

// FuzzServeConn feeds arbitrary bytes through ServeConn over net.Pipe to a
// server of a one-member in-process cluster, and holds the line protocol to
// its contract: no panic; one reply per complete input line up to QUIT,
// each starting with OK or ERR; and once the connection and the server are
// closed, nothing held and nobody waiting at the member. Server.Timeout
// bounds every wait an input can cause (a LOCK behind the session's own
// hold of the resource), so an input cannot hang the run.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"LOCK a W\nUNLOCK a\nQUIT\n",
		"LOCK a R\nLOCK a R\nUPGRADE a\nHELD\nUNLOCK a\nUNLOCK a\n",
		"LOCK a U\nUPGRADE a\nHELD\nUNLOCK a\n",
		"LOCKPATH IW fares e1\nLOCK fares R\nLOCK fares/e1 W\nUNLOCKPATH fares e1\nUNLOCKPATH fares e1\n",
		"LOCKALL W b a c a\nLOCK a W\nUNLOCKALL c b a\nUNLOCKALL a\n",
		"SESSION OPEN s 1ns\nLOCK a W\nSESSION RENEW\nSESSION CLOSE\nQUIT\n",
		"SESSION OPEN s 30s\nLOCK x IR\nSESSIONS\nSESSION OPEN t\nSESSION CLOSE\nSESSION\nSESSION BOGUS\n",
		"LOCK kept W\nSESSION OPEN s\nSESSION OPEN s 30s\n",
		"SESSION OPEN s 18446744074\nLOCK a W\nSESSION CLOSE\nSESSION OPEN t 9223372037\nSESSION RENEW\n",
		"STATS\nPEERS\nMEMBER LIST\nMEMBER ADD 127.0.0.1:1\nMEMBER REMOVE\nMEMBER\nMEMBER BOGUS\n",
		"lock a w\r\nupgrade a\r\nunlock a\r\n",
		"LOCK \x00 W\nUNLOCK \x00\nLOCK a \x00\n",
		"\n\n \t\r\nNOSUCH\nLOCK a\nUNLOCK\nUPGRADE\nLOCKPATH W\nUNLOCKPATH\nLOCKALL W\nUNLOCKALL\n",
		"LOCK a W\nLOCK b W",
		"QUIT\nLOCK a W\n",
		strings.Repeat("x", maxLine+1) + "\nLOCK a W\n",
		// The reader's copy path: a line across the end of its 4 KiB
		// buffer, one longer than the buffer, CRLF line ends, pipelined
		// LOCK/UNLOCK pairs and an unterminated last line.
		"LOCK " + strings.Repeat("p", 4096-6-len("LOCK  W\n")) + " W\nLOCK b W\nUNLOCK b\n",
		"LOCK " + strings.Repeat("y", 5000) + " W\nUNLOCK " + strings.Repeat("y", 5000) + "\n",
		"LOCK a W\r\nUNLOCK a\r\n",
		"LOCK a W\nUNLOCK a\nLOCK b W\nUNLOCK b\nLOCK a W\nUNLOCK a\n",
		"LOCK a W\nUNLOCK a",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cl, err := hierlock.NewCluster(1)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		m := cl.Member(0)
		srv := New(m)
		srv.Timeout = 10 * time.Millisecond

		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(server)
		}()
		written := make(chan struct{})
		go func() {
			defer close(written)
			_, _ = client.Write(in) // fails once either side has closed
		}()

		br := bufio.NewReader(client)
		lines := bytes.Count(in, []byte{'\n'})
		for i := 0; i < lines; i++ {
			reply, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, lines, err)
			}
			if !strings.HasPrefix(reply, "OK") && !strings.HasPrefix(reply, "ERR") {
				t.Fatalf("reply %d is %q, want OK or ERR", i+1, reply)
			}
			if reply == "OK bye\n" {
				break
			}
		}
		_ = client.Close()
		<-served
		<-written
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		for _, li := range m.Inventory().Locks {
			if li.Held != "" || li.Pending != "" || li.Waiter != nil || len(li.Queue) > 0 {
				t.Fatalf("after close the member still has %+v", li)
			}
		}
	})
}
