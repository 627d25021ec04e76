// Package semop implements semantic operators over relational tables with
// text columns — the LOTUS/PALIMPZEST/ZENDB line of systems the paper
// surveys under "Unstructured Document Analytics" (§2.2.2).
//
// A semantic operator is a relational operator whose predicate or
// projection is evaluated by an LLM: SemFilter keeps rows the model judges
// to satisfy a natural-language criterion, and SemExtract adds a column
// whose values the model extracts from text.
//
// Because every semantic evaluation costs an LLM call, plans over these
// operators are optimized the way the surveyed systems do (experiment E2):
//
//   - classical predicates run first (they are free),
//   - among semantic filters, cheaper and more selective ones run first
//     (predicate ordering by rank = cost / max(ε, 1 - selectivity)),
//   - duplicate text values are evaluated once (operator-level dedup),
//   - and the model itself can be a cache or cascade (package llm).
package semop

import (
	"errors"
	"fmt"
	"sort"

	"dataai/internal/llm"
	"dataai/internal/par"
	"dataai/internal/relation"
)

// ErrNotText indicates a semantic operator pointed at a non-string column.
var ErrNotText = errors.New("semop: text column must be a string column")

// Executor runs pipelines against one LLM client and accounts usage.
type Executor struct {
	Client llm.Client

	// Workers bounds the goroutines batch operators (SemFilter,
	// SemExtract) use to issue their deduplicated LLM calls; <= 1 keeps
	// the serial loop. Parallel issue requires Client to be safe for
	// concurrent use (every client in package llm is). Results and
	// accounting are committed in prompt order either way, so the
	// operator output and Calls/CostUSD/LatencyMS totals are identical
	// at any worker count.
	Workers int

	// Calls counts LLM invocations issued by this executor (after
	// operator-level dedup; cache hits inside the client still count
	// here as issued calls).
	Calls int
	// Degraded counts responses a resilience policy produced after the
	// primary model path failed (resilient.Client fallback or refusal);
	// zero whenever the client carries no such policy.
	Degraded int
	// CostUSD and LatencyMS accumulate the client-reported totals.
	CostUSD   float64
	LatencyMS float64
}

// NewExecutor returns an executor over client.
func NewExecutor(client llm.Client) *Executor {
	return &Executor{Client: client}
}

// account meters one successful call's response.
func (ex *Executor) account(resp llm.Response) {
	ex.Calls++
	if resp.Degraded {
		ex.Degraded++
	}
	ex.CostUSD += resp.CostUSD
	ex.LatencyMS += resp.LatencyMS
}

// completeBatch issues one call per prompt and returns responses in
// prompt order. With Workers <= 1 it is a serial loop that meters each
// call as it returns. Above that, calls go to the Client from up to
// Workers goroutines, and accounting is then committed serially in
// prompt order — float accumulation associates the same way as the
// serial loop, so CostUSD/LatencyMS are bit-identical. On error the
// first failing prompt (by index) wins and accounting covers exactly
// the prompts before it, as if the serial loop had stopped there; later
// prompts may already have reached the Client, which only ever means
// extra cache warmth on an aborted operator.
func (ex *Executor) completeBatch(prompts []string) ([]llm.Response, error) {
	if ex.Workers <= 1 || len(prompts) < 2 {
		out := make([]llm.Response, len(prompts))
		for i, p := range prompts {
			resp, err := ex.Client.Complete(llm.Request{Prompt: p})
			if err != nil {
				return nil, err
			}
			ex.account(resp)
			out[i] = resp
		}
		return out, nil
	}
	type outcome struct {
		resp llm.Response
		err  error
	}
	res := par.Map(len(prompts), ex.Workers, func(i int) outcome {
		resp, err := ex.Client.Complete(llm.Request{Prompt: prompts[i]})
		return outcome{resp, err}
	})
	out := make([]llm.Response, len(prompts))
	for i, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		ex.account(r.resp)
		out[i] = r.resp
	}
	return out, nil
}

// textColumn resolves col as a string column of t.
func textColumn(t *relation.Table, col string) (int, error) {
	idx, err := t.Schema.Index(col)
	if err != nil {
		return -1, err
	}
	if t.Schema[idx].Type != relation.String {
		return -1, fmt.Errorf("%w: %q is %s", ErrNotText, col, t.Schema[idx].Type)
	}
	return idx, nil
}

// Op is one pipeline step.
type Op interface {
	Apply(ex *Executor, t *relation.Table) (*relation.Table, error)
	// Selectivity estimates the fraction of rows surviving the op,
	// used by the optimizer. Non-filtering ops return 1.
	Selectivity() float64
	// CostPerRow estimates the op's per-row cost in arbitrary units
	// (classical ops ~0, semantic ops ~ prompt size).
	CostPerRow() float64
}

// ClassicalFilter is a zero-cost predicate on one column.
type ClassicalFilter struct {
	Col string
	// Pred evaluates one cell.
	Pred func(relation.Value) bool
	// EstSelectivity is the optimizer's estimate (default 0.5 if zero).
	EstSelectivity float64
}

// Apply implements Op.
func (f ClassicalFilter) Apply(_ *Executor, t *relation.Table) (*relation.Table, error) {
	idx, err := t.Schema.Index(f.Col)
	if err != nil {
		return nil, err
	}
	return t.Select(func(r relation.Row) bool { return f.Pred(r[idx]) }), nil
}

// Selectivity implements Op.
func (f ClassicalFilter) Selectivity() float64 {
	if f.EstSelectivity <= 0 || f.EstSelectivity > 1 {
		return 0.5
	}
	return f.EstSelectivity
}

// CostPerRow implements Op.
func (f ClassicalFilter) CostPerRow() float64 { return 0 }

// SemFilter keeps rows whose TextCol the model judges to satisfy
// Criterion (llm.JudgePrompt form, e.g. "contains:merger").
type SemFilter struct {
	TextCol   string
	Criterion string
	// EstSelectivity is the optimizer's estimate (default 0.5 if zero).
	EstSelectivity float64
}

// Apply implements Op. Identical text values are judged once.
func (f SemFilter) Apply(ex *Executor, t *relation.Table) (*relation.Table, error) {
	idx, err := textColumn(t, f.TextCol)
	if err != nil {
		return nil, err
	}
	// Unique texts in first-occurrence order — the order the serial
	// loop issued calls in — then one batched judge pass over them.
	texts := uniqueTexts(t, idx)
	prompts := make([]string, len(texts))
	for i, text := range texts {
		prompts[i] = llm.JudgePrompt(f.Criterion, text)
	}
	resps, err := ex.completeBatch(prompts)
	if err != nil {
		return nil, fmt.Errorf("semop: filter: %w", err)
	}
	verdict := make(map[string]bool, len(texts))
	for i, resp := range resps {
		verdict[texts[i]] = llm.IsYes(resp.Text)
	}
	return t.Select(func(r relation.Row) bool {
		text, _ := r[idx].(string)
		return verdict[text]
	}), nil
}

// Selectivity implements Op.
func (f SemFilter) Selectivity() float64 {
	if f.EstSelectivity <= 0 || f.EstSelectivity > 1 {
		return 0.5
	}
	return f.EstSelectivity
}

// CostPerRow implements Op.
func (f SemFilter) CostPerRow() float64 { return 1 }

// SemExtract adds column As (string) holding the model's extraction of
// Attribute from TextCol.
type SemExtract struct {
	TextCol   string
	Attribute string
	As        string
}

// Apply implements Op.
func (e SemExtract) Apply(ex *Executor, t *relation.Table) (*relation.Table, error) {
	idx, err := textColumn(t, e.TextCol)
	if err != nil {
		return nil, err
	}
	as := e.As
	if as == "" {
		as = e.Attribute
	}
	schema := append(relation.Schema{}, t.Schema...)
	schema = append(schema, relation.Column{Name: as, Type: relation.String})
	out, err := relation.NewTable(t.Name, schema)
	if err != nil {
		return nil, fmt.Errorf("semop: extract: %w", err)
	}
	texts := uniqueTexts(t, idx)
	prompts := make([]string, len(texts))
	for i, text := range texts {
		prompts[i] = llm.ExtractPrompt(e.Attribute, text)
	}
	resps, err := ex.completeBatch(prompts)
	if err != nil {
		return nil, fmt.Errorf("semop: extract: %w", err)
	}
	extracted := make(map[string]string, len(texts))
	for i, resp := range resps {
		extracted[texts[i]] = resp.Text
	}
	for _, r := range t.Rows {
		text, _ := r[idx].(string)
		nr := append(append(relation.Row{}, r...), extracted[text])
		if err := out.Insert(nr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// uniqueTexts returns column idx's distinct string values in
// first-occurrence row order.
func uniqueTexts(t *relation.Table, idx int) []string {
	seen := make(map[string]bool, len(t.Rows))
	var texts []string
	for _, r := range t.Rows {
		text, _ := r[idx].(string)
		if seen[text] {
			continue
		}
		seen[text] = true
		texts = append(texts, text)
	}
	return texts
}

// Selectivity implements Op.
func (e SemExtract) Selectivity() float64 { return 1 }

// CostPerRow implements Op.
func (e SemExtract) CostPerRow() float64 { return 1 }

// Pipeline is an ordered list of ops over one input table.
type Pipeline struct {
	ops []Op
}

// NewPipeline builds a pipeline executing ops in order.
func NewPipeline(ops ...Op) *Pipeline { return &Pipeline{ops: ops} }

// Run executes the pipeline.
func (p *Pipeline) Run(ex *Executor, t *relation.Table) (*relation.Table, error) {
	cur := t
	for i, op := range p.ops {
		next, err := op.Apply(ex, cur)
		if err != nil {
			return nil, fmt.Errorf("semop: step %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// Optimize reorders filters to minimize expected LLM cost: classical
// filters first (free row reduction), then semantic filters ordered by
// rank = CostPerRow / max(ε, 1-Selectivity) — cheap, highly selective
// predicates run earliest so later expensive ones see fewer rows.
// Non-filter ops (Selectivity == 1 and not filters) keep their relative
// position after all filters that preceded them... simplification: ops
// that change schema (extract) act as barriers; filters may not cross
// them from the right, but filters to their left reorder freely.
func Optimize(ops []Op) []Op {
	out := make([]Op, 0, len(ops))
	var window []Op
	flush := func() {
		sort.SliceStable(window, func(i, j int) bool {
			return filterRank(window[i]) < filterRank(window[j])
		})
		out = append(out, window...)
		window = nil
	}
	for _, op := range ops {
		if isFilter(op) {
			window = append(window, op)
			continue
		}
		flush()
		out = append(out, op)
	}
	flush()
	return out
}

func isFilter(op Op) bool { return op.Selectivity() < 1 }

func filterRank(op Op) float64 {
	drop := 1 - op.Selectivity()
	if drop < 1e-9 {
		drop = 1e-9
	}
	return op.CostPerRow() / drop
}
