package hierlock

import (
	"fmt"
	"strconv"
	"strings"
)

// FenceToken is the monotonically increasing token minted with every
// grant, upgrade and shared join. Clients attach it to the side effects
// they perform under the lock so downstream systems can reject writes
// from a stale holder (one whose lock was reaped or demolished by
// recovery after the token was issued).
//
// Ordering: tokens compare lexicographically as (Epoch, Seq). Within a
// recovery epoch, Seq is a Lamport-clock tick taken at grant time under
// the granting member's lock state; because the clock is carried on
// every protocol message, any two grants of conflicting modes are
// causally ordered and their Seq values strictly increase along the
// chain of exclusive holders. Across recovery rounds the epoch strictly
// increases, so a grant issued before a crash is always smaller than
// any grant issued after the lock was regenerated — even though the
// regenerated engine cannot see the pre-crash clock.
type FenceToken struct {
	// Epoch is the lock's recovery epoch at grant time (0 until the
	// first regeneration round touches the lock).
	Epoch uint32
	// Seq is the granting member's Lamport tick at grant time.
	Seq uint64
}

// IsZero reports whether f is the zero token (never minted by a grant:
// the first tick of any member clock is 1).
func (f FenceToken) IsZero() bool { return f.Epoch == 0 && f.Seq == 0 }

// Less orders tokens lexicographically by (Epoch, Seq).
func (f FenceToken) Less(g FenceToken) bool {
	if f.Epoch != g.Epoch {
		return f.Epoch < g.Epoch
	}
	return f.Seq < g.Seq
}

// String renders the token in the wire form "<epoch>.<seq>".
func (f FenceToken) String() string {
	return strconv.FormatUint(uint64(f.Epoch), 10) + "." +
		strconv.FormatUint(f.Seq, 10)
}

// ParseFence parses the wire form produced by String.
func ParseFence(s string) (FenceToken, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return FenceToken{}, fmt.Errorf("hierlock: fence %q: want <epoch>.<seq>", s)
	}
	epoch, err := strconv.ParseUint(s[:dot], 10, 32)
	if err != nil {
		return FenceToken{}, fmt.Errorf("hierlock: fence %q: bad epoch: %w", s, err)
	}
	seq, err := strconv.ParseUint(s[dot+1:], 10, 64)
	if err != nil {
		return FenceToken{}, fmt.Errorf("hierlock: fence %q: bad seq: %w", s, err)
	}
	return FenceToken{Epoch: uint32(epoch), Seq: seq}, nil
}
