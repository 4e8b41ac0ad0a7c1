package lockserver

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"hierlock"
)

// chunkConn is a connection whose reads return the chunks one at a time,
// as a stream's segments arrive (a chunk bigger than the reader's buffer
// over several reads), then io.EOF; what the server writes is kept.
type chunkConn struct {
	chunks []string
	out    bytes.Buffer
}

func (c *chunkConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && c.chunks[0] == "" {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *chunkConn) Close() error                { return nil }

// TestLineFraming: the inputs whose lines the reader cannot parse where
// its first read left them — a line across the end of the reader's 4 KiB
// buffer, one longer than the buffer, CRLF split between two reads,
// pipelined lines in one read, an unterminated last line before EOF and a
// line one byte over maxLine — are answered byte for byte as before the
// dispatcher parsed lines in place.
func TestLineFraming(t *testing.T) {
	// pad ends its line 6 bytes short of the reader's buffer, so the line
	// after it straddles the buffer's end.
	pad := "LOCK " + strings.Repeat("p", 4096-6-len("LOCK  W\n")) + " W\n"
	long := strings.Repeat("y", 5000)
	for _, tc := range []struct {
		name   string
		chunks []string
		want   string
	}{
		{"straddles the buffer's end",
			[]string{pad + "LOCK b W\nUNLOCK b\n"},
			"OK " + pad[5:len(pad)-3] + " W fence=0.2\nOK b W fence=0.4\nOK\n"},
		{"longer than the buffer",
			[]string{"LOCK " + long + " W\nUNLOCK " + long + "\nHELD\n"},
			"OK " + long + " W fence=0.2\nOK\nOK \n"},
		{"CRLF split across two reads",
			[]string{"LOCK a W\r", "\nUNLOCK a\r\n"},
			"OK a W fence=0.2\nOK\n"},
		{"pipelined in one read",
			[]string{"LOCK a W\nUNLOCK a\nLOCK b R\nUPGRADE b\nUNLOCK b\n"},
			"OK a W fence=0.2\nOK\nOK b R fence=0.5\nERR hierlock: upgrade requires mode U (holding R)\nOK\n"},
		{"unterminated last line",
			[]string{"LOCK a W\nUNLOCK a"},
			"OK a W fence=0.2\nOK\n"},
		{"maxLine+1 bytes",
			[]string{strings.Repeat("x", maxLine+1) + "\nLOCK a W\n"},
			"ERR line too long\nOK a W fence=0.2\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := hierlock.NewCluster(1)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			srv := New(cl.Member(0))
			defer srv.Close()
			conn := &chunkConn{chunks: append([]string(nil), tc.chunks...)}
			srv.ServeConn(conn)
			if got := conn.out.String(); got != tc.want {
				if len(got) > 200 || len(tc.want) > 200 {
					t.Fatalf("replies differ: got %d bytes, want %d", len(got), len(tc.want))
				}
				t.Fatalf("replies %q, want %q", got, tc.want)
			}
		})
	}
}
