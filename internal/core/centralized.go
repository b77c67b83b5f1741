package core

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/attr"
	"repro/internal/lotos"
)

// CentralizedDerivation is the "trivial solution" sketched at the start of
// Section 3: a single server protocol entity holds a copy of the service
// specification and drives all other (client) entities by exchanging
// command/acknowledgment messages. It serves as the baseline the paper's
// distributed method is motivated against: "such a centralized control
// method requires many synchronization messages and the load for the server
// PE becomes large".
type CentralizedDerivation struct {
	// Server is the place hosting the controlling entity.
	Server int
	// Places lists all service places, sorted.
	Places []int
	// Entities maps every place to its specification. The server entity is
	// structurally the service specification with remote actions replaced
	// by command/ack exchanges; each client entity is a command loop.
	Entities map[int]*lotos.Spec
}

// cmdTag builds the symbolic message tag identifying the command for one
// service primitive occurrence ("execute a at your place"), and ackTag the
// corresponding acknowledgment. Tags are per-node so that concurrent
// commands for the same primitive remain distinguishable.
func cmdTag(node int) string { return "cmd" + strconv.Itoa(node) }
func ackTag(node int) string { return "ack" + strconv.Itoa(node) }

// stopTag is the termination broadcast sent by the server when the service
// terminates, releasing the client command loops.
const stopTag = "halt"

func taggedSend(to int, tag string) lotos.Expr {
	return lotos.Act(lotos.Event{Kind: lotos.EvSend, Place: to, Node: -1, Tag: tag})
}

// DeriveCentralized builds the centralized baseline for a service
// specification. The server place defaults to the smallest place of ALL
// when server is 0.
//
// Supported service language: the full language except "[>" (the
// centralized treatment of disabling shares the distributed version's
// semantic deviations without adding insight, so the baseline rejects it).
// Choices are resolved by the server; this preserves the service's trace
// set as a whole but moves the choice from the remote user to the server —
// exactly the weakness the paper notes for centralized control.
func DeriveCentralized(sp *lotos.Spec, server int) (*CentralizedDerivation, error) {
	work := lotos.CloneSpec(sp)
	info, err := attr.Analyze(work)
	if err != nil {
		return nil, fmt.Errorf("core: centralized baseline: %w", err)
	}
	var hasDisable bool
	lotos.WalkSpec(work, func(e lotos.Expr) {
		if _, ok := e.(*lotos.Disable); ok {
			hasDisable = true
		}
	})
	if hasDisable {
		return nil, fmt.Errorf("core: centralized baseline does not support the disabling operator")
	}
	places := info.All.Sorted()
	if len(places) == 0 {
		return nil, fmt.Errorf("core: service has no places")
	}
	if server == 0 {
		server = places[0]
	}
	found := false
	for _, p := range places {
		found = found || p == server
	}
	if !found {
		return nil, fmt.Errorf("core: server place %d is not a service place", server)
	}

	d := &CentralizedDerivation{
		Server:   server,
		Places:   places,
		Entities: map[int]*lotos.Spec{},
	}

	// Server entity: the service structure with every remote primitive
	// a_q (q != server) replaced by "send cmd to q >> receive ack from q",
	// followed by a termination broadcast to all clients.
	srv := &centralizer{server: server}
	serverBlock := srv.block(work.Root)
	var stops []lotos.Expr
	for _, q := range places {
		if q != server {
			stops = append(stops, taggedSend(q, stopTag))
		}
	}
	if len(stops) > 0 {
		serverBlock.Expr = lotos.Enb(serverBlock.Expr, lotos.InterleaveOf(stops...))
	}
	d.Entities[server] = &lotos.Spec{Root: serverBlock}

	// Client entities: a command loop with one alternative per service
	// primitive occurrence at the client's place, plus the halt message.
	occurrences := primitiveOccurrences(work)
	for _, q := range places {
		if q == server {
			continue
		}
		d.Entities[q] = clientLoop(q, server, occurrences[q])
	}
	return d, nil
}

// primitiveOccurrence is one service-primitive occurrence of the
// specification: the event plus its node number.
type primitiveOccurrence struct {
	Ev   lotos.Event
	Node int
}

// primitiveOccurrences groups the primitive occurrences by place.
func primitiveOccurrences(sp *lotos.Spec) map[int][]primitiveOccurrence {
	out := map[int][]primitiveOccurrence{}
	lotos.WalkSpec(sp, func(e lotos.Expr) {
		if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvService {
			out[pfx.Ev.Place] = append(out[pfx.Ev.Place], primitiveOccurrence{Ev: pfx.Ev, Node: pfx.ID()})
		}
	})
	for p := range out {
		sort.Slice(out[p], func(i, j int) bool { return out[p][i].Node < out[p][j].Node })
	}
	return out
}

// clientLoop builds the client entity for place q:
//
//	PROC Loop = r_srv(cmdN); a_q; s_srv(ackN); Loop
//	         [] ...one alternative per occurrence...
//	         [] r_srv(halt); exit
//	END
func clientLoop(q, server int, occs []primitiveOccurrence) *lotos.Spec {
	var alts []lotos.Expr
	for _, occ := range occs {
		alts = append(alts, lotos.Pfx(
			lotos.Event{Kind: lotos.EvRecv, Place: server, Node: -1, Tag: cmdTag(occ.Node)},
			lotos.Pfx(occ.Ev,
				lotos.Pfx(lotos.Event{Kind: lotos.EvSend, Place: server, Node: -1, Tag: ackTag(occ.Node)},
					lotos.Call("Loop")))))
	}
	alts = append(alts, lotos.Pfx(
		lotos.Event{Kind: lotos.EvRecv, Place: server, Node: -1, Tag: stopTag},
		lotos.X()))
	body := lotos.ChoiceOf(alts...)
	return &lotos.Spec{Root: &lotos.DefBlock{
		Expr: lotos.Call("Loop"),
		Procs: []*lotos.ProcDef{{
			Name: "Loop",
			Body: &lotos.DefBlock{Expr: body},
		}},
	}}
}

// centralizer rewrites the service structure into the server entity.
type centralizer struct {
	server int
}

func (c *centralizer) block(blk *lotos.DefBlock) *lotos.DefBlock {
	out := &lotos.DefBlock{Expr: c.rewrite(blk.Expr)}
	for _, pd := range blk.Procs {
		out.Procs = append(out.Procs, &lotos.ProcDef{
			ID: pd.ID, Name: pd.Name, Body: c.block(pd.Body),
		})
	}
	return out
}

func (c *centralizer) rewrite(e lotos.Expr) lotos.Expr {
	switch x := e.(type) {
	case *lotos.Prefix:
		cont := c.rewrite(x.Cont)
		if x.Ev.Place == c.server {
			return lotos.Pfx(x.Ev, cont)
		}
		// Remote action: command, then acknowledgment, then continue.
		cmd := lotos.Pfx(
			lotos.Event{Kind: lotos.EvSend, Place: x.Ev.Place, Node: -1, Tag: cmdTag(x.ID())},
			lotos.Pfx(lotos.Event{Kind: lotos.EvRecv, Place: x.Ev.Place, Node: -1, Tag: ackTag(x.ID())},
				lotos.X()))
		if _, ok := cont.(*lotos.Exit); ok {
			return cmd
		}
		return lotos.Enb(cmd, cont)
	case *lotos.Choice:
		return lotos.Ch(c.rewrite(x.L), c.rewrite(x.R))
	case *lotos.Parallel:
		p := &lotos.Parallel{L: c.rewrite(x.L), R: c.rewrite(x.R), Kind: x.Kind, Sync: x.Sync}
		p.SetID(x.ID())
		return c.projectSync(p)
	case *lotos.Enable:
		return lotos.Enb(c.rewrite(x.L), c.rewrite(x.R))
	case *lotos.ProcRef:
		call := lotos.Call(x.Name)
		call.SetID(x.ID())
		return call
	case *lotos.Exit:
		return lotos.X()
	default:
		return lotos.Clone(e)
	}
}

// projectSync restricts a synchronized parallel to the server-local gates:
// remote events became messages and can no longer synchronize, so
// synchronization on them must be dropped. (Remote synchronized events are
// serialized through their command/ack exchange instead.)
func (c *centralizer) projectSync(p *lotos.Parallel) lotos.Expr {
	if p.Kind == lotos.ParInterleave {
		return p
	}
	var local []string
	if p.Kind == lotos.ParGates {
		for _, g := range p.Sync {
			if ev, err := lotos.ParseEventID(g); err == nil && ev.Place == c.server {
				local = append(local, g)
			}
		}
	} else {
		// "||": synchronize on all server-local service events of both sides.
		seen := map[string]bool{}
		lotos.Walk(p, func(n lotos.Expr) {
			if pfx, ok := n.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvService && pfx.Ev.Place == c.server {
				seen[pfx.Ev.RawID()] = true
			}
		})
		for g := range seen {
			local = append(local, g)
		}
		sort.Strings(local)
	}
	if len(local) == 0 {
		return lotos.Ill(p.L, p.R)
	}
	return lotos.Gates(p.L, local, p.R)
}

// MessageCount returns the number of messages a centralized execution
// exchanges: two per remote primitive occurrence (command + ack) plus the
// final halt broadcast — the Section-3 argument made quantitative.
func (d *CentralizedDerivation) MessageCount() int {
	n := 0
	for p, occs := range primitiveOccurrencesOfEntities(d) {
		if p != d.Server {
			n += 2 * occs
		}
	}
	return n + len(d.Places) - 1
}

// primitiveOccurrencesOfEntities counts remote command alternatives per
// client (each corresponds to one command/ack pair in the server text).
func primitiveOccurrencesOfEntities(d *CentralizedDerivation) map[int]int {
	out := map[int]int{}
	for p, sp := range d.Entities {
		if p == d.Server {
			continue
		}
		lotos.WalkSpec(sp, func(e lotos.Expr) {
			if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvService {
				out[p]++
			}
		})
	}
	return out
}
