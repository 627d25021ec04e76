// Package rewrite implements LLM-assisted query rewriting with execution-
// based equivalence verification — the Figure 1 "Query Rewrite" box and a
// direct instantiation of two §2.2.1 principles:
//
//   - the *low accuracy* challenge: "effective data management requires
//     ... strict equivalence before and after query rewriting, which
//     generic LLMs often cannot provide";
//   - the *verification* principle: "to mitigate hallucination, LLM4Data
//     incorporates mechanisms for output verification".
//
// The proposer plays the LLM's role: it generates rewrite candidates,
// most sound (redundant-conjunct elimination, contradiction detection,
// no-op ORDER BY removal) and some deliberately unsound (an off-by-one
// bound relaxation — the plausible-looking hallucination class). The
// verifier executes the original and each candidate against a witness
// database and compares result multisets; only candidates that survive
// are applied. Verification by counterexample testing is exactly what
// practical LLM-rewrite systems do — it cannot *prove* equivalence, but a
// witness database with discriminating rows catches the realistic errors.
package rewrite

import (
	"errors"
	"fmt"

	"dataai/internal/relation"
	"dataai/internal/token"
)

// ErrNoWitness indicates verification without a witness catalog.
var ErrNoWitness = errors.New("rewrite: no witness catalog")

// Proposal is one rewrite candidate.
type Proposal struct {
	SQL  string
	Rule string
}

// Proposer generates rewrite candidates for a query.
type Proposer interface {
	Propose(q *relation.ParsedQuery) []Proposal
}

// SimulatedLLMProposer generates candidates with rule-shaped edits, and —
// like the LLM it stands in for — occasionally proposes a subtly wrong
// one (bound relaxation). UnsoundRate controls how often; wrongness is
// deterministic per query text.
type SimulatedLLMProposer struct {
	// UnsoundRate in [0,1]: probability an unsound candidate is included.
	UnsoundRate float64
	// Seed drives the deterministic unsoundness decision.
	Seed uint64
}

// Propose implements Proposer.
func (p SimulatedLLMProposer) Propose(q *relation.ParsedQuery) []Proposal {
	var out []Proposal
	if c, ok := dropRedundantConjuncts(q); ok {
		out = append(out, Proposal{SQL: c.Render(), Rule: "redundant-conjunct-elimination"})
	}
	if c, ok := dropNoopOrderBy(q); ok {
		out = append(out, Proposal{SQL: c.Render(), Rule: "noop-orderby-elimination"})
	}
	// Hallucinated rewrite: relax one inclusive bound to exclusive
	// ("x >= v" -> "x > v") — looks like a simplification, changes
	// results whenever a row sits exactly on the bound.
	if token.Uniform(q.Render(), p.Seed) < p.UnsoundRate {
		if c, ok := relaxBound(q); ok {
			out = append(out, Proposal{SQL: c.Render(), Rule: "bound-relaxation (unsound)"})
		}
	}
	return out
}

// dropRedundantConjuncts removes conjuncts implied by a strictly tighter
// conjunct on the same column and direction: x > 5 AND x > 3 -> x > 5.
func dropRedundantConjuncts(q *relation.ParsedQuery) (*relation.ParsedQuery, bool) {
	conds := q.Conds()
	keep := make([]relation.Cond, 0, len(conds))
	dropped := false
	for i, c := range conds {
		redundant := false
		for j, d := range conds {
			if i == j || !implies(d, c) {
				continue
			}
			// d is at least as tight as c. Drop c — unless the two are
			// mutually implying duplicates, in which case only the later
			// copy goes.
			if !implies(c, d) || j < i {
				redundant = true
				break
			}
		}
		if redundant {
			dropped = true
			continue
		}
		keep = append(keep, c)
	}
	if !dropped {
		return nil, false
	}
	out := q.Clone()
	out.SetConds(keep)
	return out, true
}

// implies reports whether cond a satisfies-implies cond b for numeric
// comparisons on the same column: every row passing a also passes b.
func implies(a, b relation.Cond) bool {
	if a.Col != b.Col {
		return false
	}
	af, aNum := toF(a.Val)
	bf, bNum := toF(b.Val)
	if !aNum || !bNum {
		// Equality on identical literals implies itself.
		return a.Op == "=" && b.Op == "=" && a.Val == b.Val
	}
	switch {
	case (a.Op == ">" || a.Op == ">=") && (b.Op == ">" || b.Op == ">="):
		if af > bf {
			return true
		}
		return af == bf && !(a.Op == ">=" && b.Op == ">")
	case (a.Op == "<" || a.Op == "<=") && (b.Op == "<" || b.Op == "<="):
		if af < bf {
			return true
		}
		return af == bf && !(a.Op == "<=" && b.Op == "<")
	case a.Op == "=" && b.Op == "=":
		return af == bf
	default:
		return false
	}
}

func toF(v relation.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// dropNoopOrderBy removes ORDER BY from scalar-aggregate queries: a
// one-row result has no order.
func dropNoopOrderBy(q *relation.ParsedQuery) (*relation.ParsedQuery, bool) {
	col, _ := q.OrderBy()
	if col == "" || !q.HasAggregates() || q.HasGroupBy() {
		return nil, false
	}
	out := q.Clone()
	out.DropOrderBy()
	return out, true
}

// relaxBound turns the first inclusive comparison exclusive.
func relaxBound(q *relation.ParsedQuery) (*relation.ParsedQuery, bool) {
	conds := q.Conds()
	for i, c := range conds {
		if c.Op == ">=" || c.Op == "<=" {
			out := q.Clone()
			conds[i].Op = c.Op[:1]
			out.SetConds(conds)
			return out, true
		}
	}
	return nil, false
}

// Result reports one rewrite attempt.
type Result struct {
	// SQL is the accepted rewrite (the original when nothing verified).
	SQL string
	// Applied names the accepted rule ("" when none).
	Applied string
	// Rejected lists candidates the verifier refused, with reasons.
	Rejected []string
	// Verified counts candidates that passed verification.
	Verified int
}

// Rewriter verifies proposals against a witness catalog.
type Rewriter struct {
	Proposer Proposer
	// Witness is the database candidates are executed against. A good
	// witness contains rows on predicate boundaries so unsound rewrites
	// produce visible differences.
	Witness relation.Catalog
}

// Rewrite proposes, verifies, and returns the best accepted rewrite.
// "Best" is the shortest verified SQL (fewest predicates); the original
// is returned untouched when no candidate verifies.
func (r *Rewriter) Rewrite(sql string) (Result, error) {
	if len(r.Witness) == 0 {
		return Result{}, ErrNoWitness
	}
	orig, err := relation.ParseQuery(sql)
	if err != nil {
		return Result{}, fmt.Errorf("rewrite: parse: %w", err)
	}
	origOut, err := orig.Execute(r.Witness)
	if err != nil {
		return Result{}, fmt.Errorf("rewrite: execute original: %w", err)
	}
	origFP := relation.Fingerprint(origOut)

	res := Result{SQL: sql}
	best := len(sql)
	for _, cand := range r.Proposer.Propose(orig) {
		candQ, err := relation.ParseQuery(cand.SQL)
		if err != nil {
			res.Rejected = append(res.Rejected, fmt.Sprintf("%s: unparseable: %v", cand.Rule, err))
			continue
		}
		candOut, err := candQ.Execute(r.Witness)
		if err != nil {
			res.Rejected = append(res.Rejected, fmt.Sprintf("%s: execution failed: %v", cand.Rule, err))
			continue
		}
		if relation.Fingerprint(candOut) != origFP {
			res.Rejected = append(res.Rejected, fmt.Sprintf("%s: results differ on witness", cand.Rule))
			continue
		}
		res.Verified++
		if len(cand.SQL) < best {
			best = len(cand.SQL)
			res.SQL = cand.SQL
			res.Applied = cand.Rule
		}
	}
	return res, nil
}
