package fixture

import (
	"fmt"
	"os"
)

// Gauge's void Update makes the name ambiguous module-wide, so bare
// calls to any Update stay unflagged — the linter cannot tell which
// declaration a call resolves to without type information.
type Gauge struct{ v float64 }

func (g *Gauge) Update(v float64) { g.v = v }

type checkpointer struct{}

func (c *checkpointer) Update(v float64) error { return nil }

func cleanAmbiguous(g *Gauge) {
	g.Update(2.0)
}

// cleanHandled propagates the error.
func cleanHandled() error {
	if err := saveState("x.json"); err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	return nil
}

// cleanDefer: deferred Close is exempt by design.
func cleanDefer(f *os.File) error {
	defer f.Close()
	return saveState("y.json")
}

// cleanCapture keeps the error in a variable the caller inspects.
func cleanCapture() error {
	err := saveState("z.json")
	return err
}

// conn's close and copy methods put both names in the module-wide error
// index; calls to the builtins spelled the same must not become findings.
type conn struct{}

func (c *conn) close() error { return nil }

func (c *conn) copy() error { return nil }

func cleanBuiltins(ch chan int, dst, src []int) {
	_ = copy(dst, src)
	close(ch)
}
