// Package deadcode is the analysistest fixture for the deadcode
// analyzer. A fixture package has no main, so its init is the root: what
// init reaches is live, everything else is reported.
package deadcode

import (
	"errors"
	"fmt"
	"sort"
)

func init() {
	live()
	register(valueOnly)
	_ = Alias(1)

	var s shape = square{}
	fmt.Println(s.area())

	err := error(&wrapErr{inner: errors.New("x")})
	fmt.Println(errors.Is(err, errSentinel))

	sort.Sort(byLen{"bb", "a"})
}

func live() { helper() }

func helper() {}

func unused() {} // want `unused is unreachable from the program roots`

// onlyTested is called from deadcode_test.go alone: test callers do not
// count.
func onlyTested() int { return 1 } // want `onlyTested is unreachable`

// deadCaller and deadCallee are unreachable together: a call from dead
// code keeps nothing alive.
func deadCaller() { deadCallee() } // want `deadCaller is unreachable`

func deadCallee() {} // want `deadCallee is unreachable`

// A function used only as a value is referenced, not called.
func register(fn func()) { registry = append(registry, fn) }

var registry []func()

func valueOnly() {}

// A package variable aliasing a function keeps it when the variable is
// used, as the vectorio facade's `WriteCells = spatial.WriteCells` does.
var Alias = aliased

func aliased(x int) int { return x }

// shape is called through its interface only.
type shape interface{ area() float64 }

type square struct{}

func (square) area() float64 { return 1 }

func (square) perimeter() float64 { return 4 } // want `\(square\).perimeter is unreachable`

// wrapErr's methods are called by the errors and fmt packages, never by
// name in this package.
type wrapErr struct{ inner error }

var errSentinel = errors.New("sentinel")

func (e *wrapErr) Error() string { return "wrap: " + e.inner.Error() }

func (e *wrapErr) Unwrap() error { return e.inner }

// byLen satisfies sort.Interface, which only sort.Sort calls.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// kept is unreachable on purpose; the reasoned allow suppresses the
// finding.
//
//vet:allow deadcode — fixture: a sanctioned exception
func kept() {}

//vet:allow deadcode // want `//vet:allow deadcode is missing its reason`
func unreasoned() {} // want `unreasoned is unreachable`
