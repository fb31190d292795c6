package signaling

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestProtocolTableComplete: every (state, input) pair has a cell, and
// no input finds a call in a state that lasts only inside one cell.
func TestProtocolTableComplete(t *testing.T) {
	for on, row := range protocol {
		for s, cl := range row {
			switch st := callState(s); {
			case cl == nil:
				t.Errorf("no cell for %s in %s", callInputs[on], stages[s].name)
			case cl != ign && (st == callRequested || st == callProgramming || st == callReleased):
				t.Errorf("%s in %s acts, but no input finds a call %s", callInputs[on], stages[s].name, stages[s].name)
			}
		}
	}
}

// TestProtocolTableInDesign: DESIGN.md §12 shows the table's on-path
// cells (Figures 3 and 4) and the whole table as this test renders
// them, so the document cannot drift from the code.
func TestProtocolTableInDesign(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []string{onPath(), cellTable()} {
		if !strings.Contains(string(doc), block) {
			t.Errorf("DESIGN.md §12 does not hold the protocol table's rendering:\n%s", block)
		}
	}
}

// onPath renders the cells Figures 3 and 4 take, one line for each
// input that makes a call in state new: each step is the action cell
// that moves the call on to another live state.
func onPath() string {
	var b strings.Builder
	for first, row := range protocol {
		if !forward(callNew, row[callNew]) {
			continue
		}
		b.WriteString(" " + stages[callNew].name)
		for on, s := first, callState(callNew); on >= 0; {
			s = protocol[on][s].to
			fmt.Fprintf(&b, " ─%s→ %s", callInputs[on], stages[s].name)
			on = -1
			for next := range protocol {
				if forward(s, protocol[next][s]) {
					on = next
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func forward(from callState, cl *cell) bool {
	return cl.do != nil && cl.to != from && cl.to != callNew && cl.to != callReleased
}

// cellTable renders the table as markdown, one row per input, with a
// column for each state an input can find a call in.
func cellTable() string {
	var states []int
	for s := range stages {
		for on := range protocol {
			if protocol[on][s] != ign {
				states = append(states, s)
				break
			}
		}
	}
	var b strings.Builder
	b.WriteString("| input |")
	for _, s := range states {
		b.WriteString(" " + stages[s].name + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(states)) + "\n")
	for on, row := range protocol {
		b.WriteString("| " + callInputs[on] + " |")
		for _, s := range states {
			cl, text := row[s], "·"
			switch {
			case cl.do != nil:
				name := runtime.FuncForPC(reflect.ValueOf(cl.do).Pointer()).Name()
				text = name[strings.LastIndex(name, ".")+1:]
				if cl.to != callState(s) {
					text += " → " + stages[cl.to].name
				}
			case cl.end != causeOther:
				text = "end: " + endings[cl.end].text
			}
			b.WriteString(" " + text + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}
