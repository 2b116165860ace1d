package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseClauses walks the clause grammar shared by the -fault-spec and
// -serve-spec flags: a comma-separated list of key=value clauses, blanks
// around a clause and empty clauses ignored. It calls set for each clause
// in order and stops at the first error, which it returns prefixed with
// pkg and the offending clause. It walks s in place, so a spec (the empty
// one included) costs no allocation beyond what set makes.
func ParseClauses(pkg, s string, set func(key, val string) error) error {
	for more := true; more; {
		var clause string
		clause, s, more = strings.Cut(s, ",")
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("%s: clause %q is not key=value", pkg, clause)
		}
		if err := set(key, val); err != nil {
			return fmt.Errorf("%s: clause %q: %w", pkg, clause, err)
		}
	}
	return nil
}

// CutPair splits a clause value of the form A:B; what names the clause
// and shape its expected form in the error.
func CutPair(what, shape, val string) (a, b string, err error) {
	a, b, ok := strings.Cut(val, ":")
	if !ok {
		return "", "", fmt.Errorf("%s %q is not %s", what, val, shape)
	}
	return a, b, nil
}

// parseInt parses a decimal int64 and rejects one below lo, completing
// "value N ..." with complaint.
func parseInt(s string, lo int64, complaint string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < lo {
		return 0, fmt.Errorf("value %d %s", n, complaint)
	}
	return n, nil
}

// ParsePositive parses a strictly positive cycle count.
func ParsePositive(s string) (int64, error) { return parseInt(s, 1, "not positive") }

// ParseNonNeg parses a cycle count that may be zero.
func ParseNonNeg(s string) (int64, error) { return parseInt(s, 0, "negative") }

// ParseCount parses a strictly positive int.
func ParseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("value %d not positive", n)
	}
	return n, nil
}

// ParseProb parses a probability in [0,1].
func ParseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p != p || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}
