package main

import (
	"fmt"
	"math/rand"

	"hierlock"
	"hierlock/internal/workload"
)

// The four workloads. Names are final: later issues cite them.
const (
	wlHotKey   = "hot-key"
	wlAirline  = "airline-table"
	wlPrivate  = "private-keys"
	wlEmbedded = "embedded-local"
)

var workloadNames = []string{wlHotKey, wlAirline, wlPrivate, wlEmbedded}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// and the README repeat it (TestBenchmarkJSONMatches keeps them equal).
var workloadWhy = map[string]string{
	wlHotKey:   "two clients on different nodes fight over one W lock: most grants move the token across TCP, so transport, proto, the hlock remote path and member dispatch do the work",
	wlAirline:  "the paper's fare table (64 entries, IR/R/U/IW/W = 80/10/4/5/1): intent modes, copyset grants, shared joins, freezes and upgrades; the reads-beside-writes control",
	wlPrivate:  "each client cycles its own 64 resident W keys over the line protocol: zero protocol messages, so lockserver, session, the member local path and journal do all the work",
	wlEmbedded: "two goroutines call Member.Lock/Unlock on resident keys, no client sockets: member, journal, hlock and telemetry are the whole cost (the library user's view)",
}

const (
	keysPerClient = 64 // private-keys and embedded-local working set per caller
	fareEntries   = 64 // airline-table entries under "fares"
	streamLen     = 1 << 16
)

// hold is one (resource, mode) a completed acquire leaves held; res
// indexes the workload's resource table (and the oracle's).
type hold struct {
	res  int
	mode hierlock.Mode
}

// op is one acquire→release cycle, with its command lines built ahead of
// the measured window so the generator costs no allocation per op.
type op struct {
	id      int    // index in the plan's ops
	acquire []byte // first request line, "\n"-terminated
	upgrade []byte // airline U only: UPGRADE line sent after the LOCK U reply
	release []byte
	// res and mode are the Go-API form of the op (embedded-local and the
	// ladder's lower rungs); line-protocol-only ops leave res empty.
	res  string
	mode hierlock.Mode
	// holds lists what the op holds once acquired; the last entry is the
	// leaf, whose fence the reply carries.
	holds []hold
}

// plan is one client's share of a workload: the distinct ops it may
// issue, and the seeded sequence of indexes into them.
type plan struct {
	ops    []op
	stream []uint16
}

// at returns the i-th op of the (cyclic) stream.
func (p *plan) at(i int) *op { return &p.ops[p.stream[i%len(p.stream)]] }

// resourceTable interns resource names so ops and the oracle share small
// integer ids.
type resourceTable struct {
	ids   map[string]int
	names []string
}

func (t *resourceTable) id(name string) int {
	if i, ok := t.ids[name]; ok {
		return i
	}
	if t.ids == nil {
		t.ids = make(map[string]int)
	}
	t.ids[name] = len(t.names)
	t.names = append(t.names, name)
	return len(t.names) - 1
}

func lockOp(t *resourceTable, res string, mode hierlock.Mode) op {
	return op{
		acquire: []byte(fmt.Sprintf("LOCK %s %v\n", res, mode)),
		release: []byte(fmt.Sprintf("UNLOCK %s\n", res)),
		res:     res,
		mode:    mode,
		holds:   []hold{{t.id(res), mode}},
	}
}

// pathOp is LOCKPATH <leaf> fares e<i>: the member takes the matching
// intent mode on "fares" and the leaf mode on "fares/e<i>".
func pathOp(t *resourceTable, entry int, leaf, intent hierlock.Mode) op {
	seg := fmt.Sprintf("e%d", entry)
	return op{
		acquire: []byte(fmt.Sprintf("LOCKPATH %v fares %s\n", leaf, seg)),
		release: []byte(fmt.Sprintf("UNLOCKPATH fares %s\n", seg)),
		holds:   []hold{{t.id("fares"), intent}, {t.id("fares/" + seg), leaf}},
	}
}

// buildPlan makes client's plan for a workload. The seed drives only the
// order of ops; the system under test sees nothing but the commands.
func buildPlan(name string, seed int64, client int, t *resourceTable) (*plan, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	p := &plan{stream: make([]uint16, streamLen)}
	switch name {
	case wlHotKey:
		p.ops = []op{lockOp(t, "hot", hierlock.W)}
	case wlPrivate, wlEmbedded:
		for k := 0; k < keysPerClient; k++ {
			p.ops = append(p.ops, lockOp(t, fmt.Sprintf("c%d/k%d", client, k), hierlock.W))
		}
		for i := range p.stream {
			p.stream[i] = uint16(rng.Intn(keysPerClient))
		}
	case wlAirline:
		// Hierarchical mapping of internal/workload: IR/IW are one entry
		// under the table's intent lock, R/W/U are the whole table, U
		// upgrades mid-flight.
		for e := 0; e < fareEntries; e++ {
			p.ops = append(p.ops, pathOp(t, e, hierlock.R, hierlock.IR))
		}
		for e := 0; e < fareEntries; e++ {
			p.ops = append(p.ops, pathOp(t, e, hierlock.W, hierlock.IW))
		}
		tableR, tableW, tableU := 2*fareEntries, 2*fareEntries+1, 2*fareEntries+2
		p.ops = append(p.ops, lockOp(t, "fares", hierlock.R), lockOp(t, "fares", hierlock.W))
		u := lockOp(t, "fares", hierlock.U)
		u.upgrade = []byte("UPGRADE fares\n")
		p.ops = append(p.ops, u)
		mix := workload.PaperMix
		for i := range p.stream {
			r := rng.Intn(mix.IR + mix.R + mix.U + mix.IW + mix.W)
			entry := rng.Intn(fareEntries)
			switch {
			case r < mix.IR:
				p.stream[i] = uint16(entry)
			case r < mix.IR+mix.R:
				p.stream[i] = uint16(tableR)
			case r < mix.IR+mix.R+mix.U:
				p.stream[i] = uint16(tableU)
			case r < mix.IR+mix.R+mix.U+mix.IW:
				p.stream[i] = uint16(fareEntries + entry)
			default:
				p.stream[i] = uint16(tableW)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for i := range p.ops {
		p.ops[i].id = i
	}
	return p, nil
}
