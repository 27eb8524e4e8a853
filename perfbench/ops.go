package main

import (
	"fmt"
	"slices"
	"time"

	"encshare"
)

// class is one of the four canonical operations.
type class int

const (
	point class = iota
	scan
	sum
	appendLeaf
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "sum", "append"}

func (c class) String() string { return classNames[c] }

// isRead reports whether the class is a query (traced by the session).
func (c class) isRead() bool { return c != appendLeaf }

// opResult is one timed operation.
type opResult struct {
	class class
	wall  time.Duration // the Session call alone
	cpu   time.Duration // CPU time of the whole process during the call
	err   error         // transport/program error, or a wrong answer
	stats encshare.Stats
}

// order is the operation sequence of every cycle, the same on every run.
// An append and the delete that undoes it purge the server's
// decoded-polynomial cache, so what an operation costs depends on what
// ran before it; an order drawn from the seed would make each seed
// measure another mix of cache states.
var order = [numClasses]class{appendLeaf, point, scan, sum}

// rotation yields the op sequence: cycle after cycle of order.
type rotation struct{ n int }

// next returns the next class and whether it starts a new cycle.
func (r *rotation) next() (class, bool) {
	i := r.n % len(order)
	r.n++
	return order[i], i == 0
}

// run performs one operation and checks its answer against the oracle.
// Only the Session call is timed, on the wall clock and on the process's
// CPU clock; the check runs after the clocks stop.
func (s *system) run(c class, in *inputs) opResult {
	res := opResult{class: c}
	cpu0, start := processCPU(), time.Now()
	stop := func() { res.wall, res.cpu = time.Since(start), processCPU()-cpu0 }
	switch c {
	case point, scan:
		q, test, want := pointQuery, encshare.TestExact, in.point
		if c == scan {
			q, test, want = scanQuery, encshare.TestContainment, in.scan
		}
		r, err := s.sess.QueryWith(q, encshare.QueryOptions{Test: test})
		stop()
		res.stats = r.Stats
		switch {
		case err != nil:
			res.err = err
		case !slices.Equal(r.Pres, want):
			res.err = fmt.Errorf("%s %s: %d matches, oracle has %d", c, q, len(r.Pres), len(want))
		}
	case sum:
		r, err := s.sess.Aggregate(sumQuery, encshare.AggSum)
		stop()
		res.stats = r.Stats
		switch {
		case err != nil:
			res.err = err
		case !r.Verified:
			res.err = fmt.Errorf("sum %s: result not verified", sumQuery)
		case r.Count != int64(len(in.sum)) || !slices.Equal(r.Pres, in.sum):
			res.err = fmt.Errorf("sum %s: count %d, oracle has %d", sumQuery, r.Count, len(in.sum))
		}
	case appendLeaf:
		pre, err := s.sess.Insert(rootPre, appendName)
		stop()
		if err != nil {
			res.err = err
			break
		}
		n, err := s.nodeCount()
		if err != nil {
			res.err = err
			break
		}
		if pre != s.nodes+1 || n != s.nodes+1 {
			res.err = fmt.Errorf("append: new pre %d and node count %d, want both %d", pre, n, s.nodes+1)
			s.nodes = n
			break
		}
		s.appended = pre
	}
	return res
}

// undo deletes the leaf the last append added, untimed. Without it every
// append would leave one more child of the root for each later query to
// examine, and latency would climb through the run; with it the
// document, and every operation's cost, stay the same.
func (s *system) undo() error {
	if s.appended == 0 {
		return nil
	}
	pre := s.appended
	s.appended = 0
	if err := s.sess.Delete(pre); err != nil {
		return fmt.Errorf("deleting appended leaf %d: %w", pre, err)
	}
	n, err := s.nodeCount()
	if err != nil {
		return err
	}
	if n != s.nodes {
		return fmt.Errorf("after deleting appended leaf %d: %d nodes, want %d", pre, n, s.nodes)
	}
	return nil
}
