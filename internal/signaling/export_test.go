package signaling

import (
	"errors"
	"fmt"

	"xunet/internal/atm"
	"xunet/internal/rtnet"
)

// PeerFor returns the carrier peer that signaling for dst goes to.
func (h *RealHost) PeerFor(dst atm.Addr) *rtnet.Peer { return h.peerFor(dst) }

// Chains watches one sighost's transition records through its hook and
// checks that, per call key, they form one chain: it opens from callNew,
// each record's From is the previous record's To, and exactly one
// record, the last, goes to callReleased. A crash closes every open
// chain; Recover, which bumps the incarnation (with a journal), opens
// new ones, with cause restarted, only for calls a crash closed.
type Chains struct {
	sh      *Sighost
	inc     uint32                // sh.epochGen when the last record came
	open    map[callKey]callState // each open chain's last To
	lost    map[callKey]bool      // chains a crash closed
	errs    []error
	Records int // records seen
	Rebuilt int // chains Recover opened
}

// WatchChains sets sh's hook to a new Chains.
func WatchChains(sh *Sighost) *Chains {
	ch := &Chains{sh: sh, inc: sh.epochGen, open: map[callKey]callState{}, lost: map[callKey]bool{}}
	sh.hook = ch.add
	return ch
}

func (ch *Chains) add(tr Transition) {
	ch.Records++
	if ch.sh.epochGen != ch.inc { // crashed and recovered since the last record
		ch.inc = ch.sh.epochGen
		for k := range ch.open {
			ch.lost[k] = true
		}
		clear(ch.open)
	}
	last, open := ch.open[tr.Call]
	fail := func(format string, args ...any) {
		ch.errs = append(ch.errs, fmt.Errorf("%s: call %+v, %d → %d: %s", ch.sh.env.Addr(), tr.Call, tr.From, tr.To, fmt.Sprintf(format, args...)))
	}
	switch {
	case tr.From == callNew && open:
		fail("opens a second chain while one is open at %d", last)
	case tr.From == callNew && tr.Cause == restarted && !ch.lost[tr.Call]:
		fail("rebuilt, but no crash closed its chain")
	case tr.From != callNew && !open:
		fail("continues no open chain")
	case tr.From != callNew && tr.From != last:
		fail("the chain is at %d", last)
	}
	if tr.From == callNew && tr.Cause == restarted {
		ch.Rebuilt++
	}
	delete(ch.lost, tr.Call)
	if tr.To == callReleased {
		delete(ch.open, tr.Call)
	} else {
		ch.open[tr.Call] = tr.To
	}
}

// Err reports the broken chains, and then, read with the sighost
// quiescent: an open chain that is not a live call in the state it
// reached, and a kept length that is not its map's (or log's).
func (ch *Chains) Err() error {
	sh := ch.sh
	errs := ch.errs
	for k, st := range ch.open {
		if c := sh.calls[k]; c == nil {
			errs = append(errs, fmt.Errorf("%s: chain of %+v open at %d, but the call is gone", sh.env.Addr(), k, st))
		} else if c.state != st {
			errs = append(errs, fmt.Errorf("%s: chain of %+v open at %d, but the call is at %d", sh.env.Addr(), k, st, c.state))
		}
	}
	if len(sh.calls) != len(ch.open) {
		errs = append(errs, fmt.Errorf("%s: %d live calls, %d open chains", sh.env.Addr(), len(sh.calls), len(ch.open)))
	}
	type length struct {
		name string
		kept *size
		len  int
	}
	lengths := []length{
		{"services", &sh.n.services, len(sh.services)},
		{"outgoing", &sh.n.outgoing, len(sh.outgoing)},
		{"incoming", &sh.n.incoming, len(sh.incoming)},
		{"wait_for_bind", &sh.n.waitBind, len(sh.waitBind)},
		{"VCI_mapping", &sh.n.vciMap, len(sh.vciMap)},
		{"cookies", &sh.n.cookies, len(sh.cookies)},
		{"calls", &sh.n.calls, len(sh.calls)},
	}
	if j := sh.jr; j != nil {
		lengths = append(lengths, length{"journal bytes", &j.nBytes, len(j.buf)},
			length{"journal records", &j.nRecords, j.n}, length{"journal pending", &j.nPending, j.pendingN})
	}
	if sh.rel != nil {
		for _, lk := range sh.rel.links {
			lengths = append(lengths, length{"backlog to " + string(lk.addr), &lk.backlog, len(lk.unacked)})
		}
	}
	for _, l := range lengths {
		if got := int(l.kept.get()); got != l.len {
			errs = append(errs, fmt.Errorf("%s: %s kept as %d, is %d", sh.env.Addr(), l.name, got, l.len))
		}
	}
	return errors.Join(errs...)
}
