package graph

import (
	"fmt"
	"strings"
)

// DOTAnnotations carries optional per-element notes for DOT rendering:
// extra label lines keyed by node/buffer ID (footprint bytes, schedule
// position, ...), so graphs cross-reference execution traces and plans.
type DOTAnnotations struct {
	NodeNotes map[int]string // appended to the node's label
	BufNotes  map[int]string // appended to the buffer's label
}

// DOTAnnotated renders the graph in Graphviz dot syntax, mirroring the
// paper's figures: ellipses for operators, rectangles for data
// structures. Any annotation notes are appended to the element labels;
// ann may be nil.
func (g *Graph) DOTAnnotated(title string, ann *DOTAnnotations) string {
	note := func(m map[int]string, id int) string {
		if ann == nil || m == nil {
			return ""
		}
		if s, ok := m[id]; ok && s != "" {
			return "\\n" + s
		}
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n")
	for _, buf := range g.LiveBuffers() {
		shapeAttr := "box"
		style := ""
		if buf.IsInput {
			style = ",style=filled,fillcolor=lightblue"
		} else if buf.IsOutput {
			style = ",style=filled,fillcolor=lightyellow"
		}
		fmt.Fprintf(&b, "  b%d [label=\"%s\\n%s (%d)%s\",shape=%s%s];\n",
			buf.ID, buf.Name, buf.Shape(), buf.Size(),
			note(ann.bufNotes(), buf.ID), shapeAttr, style)
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%s%s\",shape=ellipse];\n",
			n.ID, n.Name, n.Op.Kind(), note(ann.nodeNotes(), n.ID))
		for _, buf := range n.InputBuffers() {
			fmt.Fprintf(&b, "  b%d -> n%d;\n", buf.ID, n.ID)
		}
		for _, buf := range n.Out.Bufs {
			fmt.Fprintf(&b, "  n%d -> b%d;\n", n.ID, buf.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// nil-safe accessors so DOTAnnotated reads cleanly with ann == nil.
func (a *DOTAnnotations) nodeNotes() map[int]string {
	if a == nil {
		return nil
	}
	return a.NodeNotes
}

func (a *DOTAnnotations) bufNotes() map[int]string {
	if a == nil {
		return nil
	}
	return a.BufNotes
}
