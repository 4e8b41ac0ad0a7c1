// Package mexcheck_test model-checks the four exclusive-only baseline
// protocols (Naimi–Trehel, Raymond, Suzuki–Kasami, Ricart–Agrawala) the
// same way
// internal/hlock's checker covers the hierarchical protocol: every
// interleaving of client operations and per-link FIFO deliveries is
// explored for small clusters, with mutual exclusion and token uniqueness
// asserted in every reachable state and completion in every terminal one.
package mexcheck_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hierlock/internal/naimi"
	"hierlock/internal/proto"
	"hierlock/internal/raymond"
	"hierlock/internal/ricart"
	"hierlock/internal/suzuki"
)

const testLock proto.LockID = 1

// engine abstracts the four baselines behind one shape. They share the
// step output (proto.ExclOut), so the adapters carry only what still
// differs: Clone's concrete return type, and Ricart–Agrawala's missing
// token.
type engine interface {
	Acquire() (proto.ExclOut, error)
	Release() (proto.ExclOut, error)
	Handle(*proto.Message) (proto.ExclOut, error)
	Clone(*proto.Clock) engine
	Fingerprint() string
	Held() bool
	HasToken() bool
}

type naimiEng struct{ *naimi.Engine }

func (e naimiEng) Clone(c *proto.Clock) engine { return naimiEng{e.Engine.Clone(c)} }

type raymondEng struct{ *raymond.Engine }

func (e raymondEng) Clone(c *proto.Clock) engine { return raymondEng{e.Engine.Clone(c)} }

type suzukiEng struct{ *suzuki.Engine }

func (e suzukiEng) Clone(c *proto.Clock) engine { return suzukiEng{e.Engine.Clone(c)} }

type ricartEng struct{ *ricart.Engine }

func (e ricartEng) Clone(c *proto.Clock) engine { return ricartEng{e.Engine.Clone(c)} }

// HasToken: the permission-based algorithm has no token; the checker
// skips token-uniqueness for it (see tokenless).
func (e ricartEng) HasToken() bool { return false }

// factory builds the n engines of a protocol in their initial topology.
type factory func(n int, clocks []*proto.Clock) []engine

var factories = map[string]factory{
	"naimi": func(n int, clocks []*proto.Clock) []engine {
		out := make([]engine, n)
		for i := 0; i < n; i++ {
			out[i] = naimiEng{naimi.New(proto.NodeID(i), testLock, 0, i == 0, clocks[i])}
		}
		return out
	},
	"raymond": func(n int, clocks []*proto.Clock) []engine {
		out := make([]engine, n)
		for i := 0; i < n; i++ {
			out[i] = raymondEng{raymond.New(proto.NodeID(i), testLock, raymond.BinaryTreeHolder(proto.NodeID(i)), clocks[i])}
		}
		return out
	},
	"suzuki": func(n int, clocks []*proto.Clock) []engine {
		out := make([]engine, n)
		for i := 0; i < n; i++ {
			out[i] = suzukiEng{suzuki.New(proto.NodeID(i), testLock, n, i == 0, clocks[i])}
		}
		return out
	},
	"ricart": func(n int, clocks []*proto.Clock) []engine {
		out := make([]engine, n)
		for i := 0; i < n; i++ {
			out[i] = ricartEng{ricart.New(proto.NodeID(i), testLock, n, clocks[i])}
		}
		return out
	},
}

// tokenless marks protocols without a token (no uniqueness check).
var tokenless = map[string]bool{"ricart": true}

type phase uint8

const (
	phIdle phase = iota
	phWaiting
	phHolding
	phDone
)

type state struct {
	engines []engine
	clocks  []*proto.Clock
	queues  map[[2]proto.NodeID][]proto.Message
	phase   []phase
}

func (s *state) clone() *state {
	n := len(s.engines)
	ns := &state{
		engines: make([]engine, n),
		clocks:  make([]*proto.Clock, n),
		queues:  make(map[[2]proto.NodeID][]proto.Message, len(s.queues)),
		phase:   append([]phase(nil), s.phase...),
	}
	for i := 0; i < n; i++ {
		ns.clocks[i] = s.clocks[i].Clone()
		ns.engines[i] = s.engines[i].Clone(ns.clocks[i])
	}
	for k, q := range s.queues {
		if len(q) > 0 {
			ns.queues[k] = append([]proto.Message(nil), q...)
		}
	}
	return ns
}

// key canonically encodes the state. Lamport clock values and message
// timestamps are deliberately excluded: none of the token baselines
// branches on them, so including them would split behaviorally identical
// states and explode the search space.
func (s *state) key() string {
	var b strings.Builder
	for i, e := range s.engines {
		fmt.Fprintf(&b, "N%d[%s|%d]", i, e.Fingerprint(), s.phase[i])
	}
	links := make([][2]proto.NodeID, 0, len(s.queues))
	for k, q := range s.queues {
		if len(q) > 0 {
			links = append(links, k)
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, k := range links {
		fmt.Fprintf(&b, "L%d-%d:", k[0], k[1])
		for _, m := range s.queues[k] {
			fmt.Fprintf(&b, "%d/%d/%v/%v;", m.Kind, m.Seq, m.Vec, m.Req.Origin)
			for _, r := range m.Queue {
				fmt.Fprintf(&b, "q%d,", r.Origin)
			}
		}
	}
	return b.String()
}

type checker struct {
	t       *testing.T
	name    string
	notoken bool
	visited map[string]struct{}
	states  int
	limit   int
	// succ/terminal record the state graph for the liveness check.
	succ     map[string][]string
	terminal map[string]bool
}

func (c *checker) fail(s *state, format string, args ...interface{}) {
	c.t.Helper()
	var b strings.Builder
	for i, e := range s.engines {
		fmt.Fprintf(&b, "  node %d ph %d: %s\n", i, s.phase[i], e.Fingerprint())
	}
	c.t.Fatalf("[%s] "+format+"\nstate:\n%s", append([]interface{}{c.name}, append(args, b.String())...)...)
}

func (c *checker) safety(s *state) {
	c.t.Helper()
	holders := 0
	for _, e := range s.engines {
		if e.Held() {
			holders++
		}
	}
	if holders > 1 {
		c.fail(s, "MUTUAL EXCLUSION: %d holders", holders)
	}
	if !c.notoken {
		tokens := 0
		for _, e := range s.engines {
			if e.HasToken() {
				tokens++
			}
		}
		for _, q := range s.queues {
			for _, m := range q {
				if m.Kind == proto.KindToken {
					tokens++
				}
			}
		}
		if tokens != 1 {
			c.fail(s, "TOKEN COUNT = %d", tokens)
		}
	}
}

func (c *checker) explore(s *state) {
	c.t.Helper()
	k := s.key()
	if _, seen := c.visited[k]; seen {
		return
	}
	c.visited[k] = struct{}{}
	c.states++
	if c.states > c.limit {
		c.t.Fatalf("[%s] state limit exceeded", c.name)
	}
	c.safety(s)

	acted := false
	step := func(mut func(ns *state)) {
		acted = true
		ns := s.clone()
		mut(ns)
		c.succ[k] = append(c.succ[k], ns.key())
		c.explore(ns)
	}
	for i := range s.engines {
		i := i
		switch s.phase[i] {
		case phIdle:
			step(func(ns *state) {
				ns.phase[i] = phWaiting
				out, err := ns.engines[i].Acquire()
				if err != nil {
					c.fail(ns, "Acquire: %v", err)
				}
				c.absorb(ns, i, out.Msgs, out.Acquired)
			})
		case phHolding:
			step(func(ns *state) {
				ns.phase[i] = phDone
				out, err := ns.engines[i].Release()
				if err != nil {
					c.fail(ns, "Release: %v", err)
				}
				c.absorb(ns, i, out.Msgs, out.Acquired)
			})
		}
	}
	for k, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		k := k
		step(func(ns *state) {
			msg := ns.queues[k][0]
			ns.queues[k] = ns.queues[k][1:]
			if len(ns.queues[k]) == 0 {
				delete(ns.queues, k)
			}
			out, err := ns.engines[msg.To].Handle(&msg)
			if err != nil {
				c.fail(ns, "Handle(%v %d→%d): %v", msg.Kind, msg.From, msg.To, err)
			}
			c.absorb(ns, int(msg.To), out.Msgs, out.Acquired)
		})
	}

	if !acted {
		for i := range s.engines {
			if s.phase[i] != phDone {
				c.fail(s, "node %d never completed (phase %d)", i, s.phase[i])
			}
			if s.engines[i].Held() {
				c.fail(s, "node %d still holding at termination", i)
			}
		}
		c.terminal[k] = true
	}
}

// checkLiveness verifies every explored state can reach a terminal state
// (no livelocks), by backward reachability from the terminal set.
func (c *checker) checkLiveness() {
	c.t.Helper()
	pred := make(map[string][]string, len(c.succ))
	for from, tos := range c.succ {
		for _, to := range tos {
			pred[to] = append(pred[to], from)
		}
	}
	reach := make(map[string]bool, len(c.visited))
	var stack []string
	for k := range c.terminal {
		reach[k] = true
		stack = append(stack, k)
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[k] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	dead := 0
	for k := range c.visited {
		if !reach[k] {
			dead++
		}
	}
	if dead > 0 {
		c.t.Fatalf("[%s] LIVELOCK: %d of %d states cannot reach completion", c.name, dead, len(c.visited))
	}
}

func (c *checker) absorb(s *state, node int, msgs []proto.Message, acquired bool) {
	for _, m := range msgs {
		key := [2]proto.NodeID{m.From, m.To}
		s.queues[key] = append(s.queues[key], m)
	}
	if acquired {
		if s.phase[node] != phWaiting {
			c.fail(s, "node %d acquired in phase %d", node, s.phase[node])
		}
		s.phase[node] = phHolding
	}
}

// TestModelCheckBaselines explores every interleaving for clusters of 2,
// 3 and 4 nodes, each node acquiring and releasing once, for all four
// baseline protocols.
func TestModelCheckBaselines(t *testing.T) {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := factories[name]
		sizes := []int{2, 3, 4}
		if name == "ricart" {
			// Ricart–Agrawala's behavior depends on timestamp comparisons,
			// so states do not collapse under the clock-free abstraction;
			// four nodes is intractable to enumerate exactly.
			sizes = []int{2, 3}
		}
		for _, n := range sizes {
			name, n := name, n
			t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
				clocks := make([]*proto.Clock, n)
				for i := range clocks {
					clocks[i] = &proto.Clock{}
				}
				s := &state{
					engines: f(n, clocks),
					clocks:  clocks,
					queues:  make(map[[2]proto.NodeID][]proto.Message),
					phase:   make([]phase, n),
				}
				c := &checker{
					t: t, name: name,
					notoken:  tokenless[name],
					visited:  make(map[string]struct{}),
					limit:    3_000_000,
					succ:     make(map[string][]string),
					terminal: make(map[string]bool),
				}
				c.explore(s)
				c.checkLiveness()
				t.Logf("explored %d states, liveness verified (%d terminal)", c.states, len(c.terminal))
			})
		}
	}
}
