package lts

import (
	"fmt"
	"strings"
)

// DOT renders the transition graph in Graphviz dot format: observable
// transitions as solid edges labelled with the event, internal actions as
// dashed grey edges, successful termination as double-circled targets.
// Frontier (truncated) states are drawn dashed.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	b.WriteString("digraph lts {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=circle, fontsize=10];\n")
	if title != "" {
		fmt.Fprintf(&b, "  label=%q; labelloc=top;\n", title)
	}
	terminated := make([]bool, len(g.Edges))
	for _, es := range g.Edges {
		for _, e := range es {
			if e.Label == DeltaID {
				terminated[e.To] = true
			}
		}
	}
	for s := range g.Edges {
		attrs := []string{fmt.Sprintf("label=\"%d\"", s)}
		if s == 0 {
			attrs = append(attrs, "style=bold")
		}
		if terminated[s] {
			attrs = append(attrs, "shape=doublecircle")
		}
		if g.Frontier[s] {
			attrs = append(attrs, "style=dashed")
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", s, strings.Join(attrs, ", "))
	}
	for s, es := range g.Edges {
		for _, e := range es {
			switch l := g.Alphabet[e.Label]; l.Kind {
			case LInternal:
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"i\", style=dashed, color=gray];\n", s, e.To)
			case LDelta:
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"δ\"];\n", s, e.To)
			default:
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", s, e.To, l.Ev.String())
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
