package compiler

import (
	"reflect"

	"repro/internal/graph"
	"repro/internal/loadbalance"
	"repro/internal/obs"
)

// ScheduleBindPass binds a load-balancing schedule onto every operator
// that shards a row loop (graph.ScheduleBinder). It runs first in the
// pipeline — before splitting — so split parts, which share their
// source node's operator value, inherit the binding for free.
//
// The pass never writes to the graph it is given. It replaces c.Graph
// with a Subgraph view over the compilation's own node list: shallow
// copies of every node, made in one allocation, sharing args and buffers
// with the input graph and differing only in the bound operator. A
// template shares one operator value across a layer's nodes, so binding
// is memoized by operator value and each distinct operator is copied
// once, not once per node.
//
// Binding is a pure execution-strategy choice: it changes which host
// goroutine computes which rows, never what is computed or what the
// device model accounts, so it deliberately stays out of the graph
// fingerprint. The plan-cache key still distinguishes schedules via the
// service config string, keeping per-schedule wall-time measurements
// honest.
type ScheduleBindPass struct {
	// Schedule selects the policy by name ("", "static", "mergepath",
	// "worksteal"); empty keeps the library default.
	Schedule string
}

// Name implements Pass.
func (ScheduleBindPass) Name() string { return "schedule-bind" }

// Run implements Pass.
func (p ScheduleBindPass) Run(c *Compilation, sp *obs.Span) error {
	sched, err := loadbalance.ByName(p.Schedule)
	if err != nil {
		return err
	}
	sp.SetArgf("schedule", "%s", sched.Name())
	src := c.Graph.Nodes
	copies := make([]graph.Node, len(src))
	nodes := make([]*graph.Node, len(src))
	memo := map[graph.Operator]graph.Operator{}
	bound := 0
	for i, n := range src {
		copies[i] = *n
		nodes[i] = &copies[i]
		sb, ok := n.Op.(graph.ScheduleBinder)
		if !ok || sb.BoundSchedule() != nil {
			// Not a row-loop operator, or a template bound it explicitly;
			// respect that.
			continue
		}
		// Library binders are pointers; a binder of an uncomparable type
		// cannot key the memo and is bound per node.
		if !reflect.TypeOf(sb).Comparable() {
			copies[i].Op = sb.BindSchedule(sched)
		} else if op, ok := memo[sb]; ok {
			copies[i].Op = op
		} else {
			copies[i].Op = sb.BindSchedule(sched)
			memo[sb] = copies[i].Op
		}
		bound++
	}
	c.Graph = c.Graph.Subgraph(nodes)
	c.Diagf("schedule-bind: %s bound to %d of %d operators", sched.Name(), bound, len(src))
	return nil
}
