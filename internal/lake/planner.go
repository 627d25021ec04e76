package lake

import (
	"fmt"
	"regexp"
	"strings"

	"dataai/internal/agent"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/llm"
	"dataai/internal/rag"
	"dataai/internal/vecdb"
)

// QueryKind classifies a lake query into a plan template.
type QueryKind string

// Plan templates the planner can instantiate.
const (
	KindLookup QueryKind = "lookup"
	KindTwoHop QueryKind = "twohop"
	KindCount  QueryKind = "count"
)

// Planner compiles natural-language lake queries into tool pipelines and
// executes them — the SYMPHONY/CAESURA pattern: "decompose queries into
// sequences of sub-queries" and "integrate tools to support multi-modal
// data processing".
type Planner struct {
	client llm.Client
	lake   *Lake
	agent  *agent.Agent
}

// NewPlanner wires the tool set over the lake: a retriever across item
// descriptions, an answerer, an iterative RAG tool for multi-hop
// questions, and an NL2SQL + SQL pair over the structured tables.
func NewPlanner(client llm.Client, l *Lake, e embed.Embedder) (*Planner, error) {
	if len(l.Items) == 0 {
		return nil, ErrEmptyLake
	}
	p := &Planner{client: client, lake: l}

	// RAG pipeline over the non-structured items (structured rows are
	// reachable via SQL instead).
	rp, err := rag.New(client, e, vecdb.NewFlat(e.Dim()), rag.WithTopK(4))
	if err != nil {
		return nil, fmt.Errorf("lake: planner rag: %w", err)
	}
	var docs []docstore.Document
	for _, it := range l.Items {
		if it.Modality == Structured {
			continue
		}
		docs = append(docs, docstore.Document{ID: it.ID, Text: it.Description()})
	}
	if err := rp.Ingest(docs); err != nil {
		return nil, fmt.Errorf("lake: planner ingest: %w", err)
	}

	tools := []agent.Tool{
		agent.ToolFunc{
			ToolName: "retrieve",
			Desc:     "vector search over lake item descriptions; returns top passages",
			Fn: func(in string) (string, error) {
				hits, err := rp.Retrieve(in, 4)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, h := range hits {
					b.WriteString(h.Chunk.Text)
					b.WriteByte('\n')
				}
				return strings.TrimRight(b.String(), "\n"), nil
			},
		},
		agent.ToolFunc{
			ToolName: "answer",
			Desc:     "answer a question from context; input: question line, then context lines",
			Fn: func(in string) (string, error) {
				lines := strings.Split(in, "\n")
				question := lines[0]
				resp, err := client.Complete(llm.Request{Prompt: llm.AnswerPrompt(question, lines[1:])})
				if err != nil {
					return "", err
				}
				return resp.Text, nil
			},
		},
		agent.ToolFunc{
			ToolName: "iterative_rag",
			Desc:     "multi-hop retrieval and answer for bridge questions",
			Fn: func(in string) (string, error) {
				a, err := rp.AnswerIterative(in)
				if err != nil {
					return "", err
				}
				return a.Text, nil
			},
		},
		agent.ToolFunc{
			ToolName: "nl2sql",
			Desc:     "translate a counting question into SQL over the lake tables",
			Fn:       p.nl2sql,
		},
		agent.ToolFunc{
			ToolName: "sql",
			Desc:     "execute SQL over the structured lake tables",
			Fn: func(in string) (string, error) {
				t, err := l.Tables.Query(in)
				if err != nil {
					return "", err
				}
				if t.Len() == 1 && len(t.Schema) == 1 {
					return fmt.Sprintf("%v", t.Rows[0][0]), nil
				}
				var b strings.Builder
				for _, r := range t.Rows {
					for i, v := range r {
						if i > 0 {
							b.WriteString(", ")
						}
						fmt.Fprintf(&b, "%v", v)
					}
					b.WriteByte('\n')
				}
				return strings.TrimRight(b.String(), "\n"), nil
			},
		},
	}
	ag, err := agent.New(tools, agent.WithMaxRetries(1))
	if err != nil {
		return nil, err
	}
	p.agent = ag
	return p, nil
}

var countQueryRe = regexp.MustCompile(`(?i)^how many (\w+) entities have (.+) ([a-z]+)\?$`)

// nl2sql translates the counting-question template into SQL. Real systems
// delegate this to the LLM; the translation rules here mirror what a
// constrained NL2SQL prompt produces, and the surrounding plan still pays
// the model's classification error rate.
func (p *Planner) nl2sql(q string) (string, error) {
	m := countQueryRe.FindStringSubmatch(q)
	if m == nil {
		return "", fmt.Errorf("lake: nl2sql cannot parse %q", q)
	}
	domain, rel, value := strings.ToLower(m[1]), SanitizeColumn(m[2]), m[3]
	if _, ok := p.lake.Tables[domain]; !ok {
		return "", fmt.Errorf("lake: nl2sql: unknown domain %q", domain)
	}
	return fmt.Sprintf("SELECT count(*) FROM %s WHERE %s = '%s'", domain, rel, value), nil
}

// Classify picks the plan template for a query. It consults the LLM with
// judge calls (inheriting the model's error rate) rather than pattern-
// matching directly — the planner, not the string, decides.
func (p *Planner) Classify(query string) (QueryKind, error) {
	isCount, err := p.judge("contains:how many", query)
	if err != nil {
		return "", err
	}
	if isCount {
		return KindCount, nil
	}
	isTwoHop, err := p.judge("contains:entity whose", query)
	if err != nil {
		return "", err
	}
	if isTwoHop {
		return KindTwoHop, nil
	}
	return KindLookup, nil
}

func (p *Planner) judge(criterion, text string) (bool, error) {
	resp, err := p.client.Complete(llm.Request{Prompt: llm.JudgePrompt(criterion, text)})
	if err != nil {
		return false, err
	}
	return llm.IsYes(resp.Text), nil
}

// Plan instantiates the template for the query's kind.
func (p *Planner) Plan(query string) (QueryKind, []agent.Action, error) {
	kind, err := p.Classify(query)
	if err != nil {
		return kind, nil, err
	}
	switch kind {
	case KindCount:
		return kind, []agent.Action{
			{Tool: "nl2sql", Input: "$q"},
			{Tool: "sql", Input: "$prev"},
		}, nil
	case KindTwoHop:
		return kind, []agent.Action{{Tool: "iterative_rag", Input: "$q"}}, nil
	default:
		return kind, []agent.Action{
			{Tool: "retrieve", Input: "$q"},
			{Tool: "answer", Input: "$q\n$prev"},
		}, nil
	}
}

// Answer plans and executes the query, returning the answer and trace.
func (p *Planner) Answer(query string) (string, agent.Trace, error) {
	_, plan, err := p.Plan(query)
	if err != nil {
		return "", agent.Trace{Failed: true}, err
	}
	tr, err := p.agent.Run(query, plan)
	if err != nil {
		return "", tr, err
	}
	return tr.Answer, tr, nil
}

// SingleShot is the baseline: ask the model directly, no tools.
func (p *Planner) SingleShot(query string) (string, error) {
	resp, err := p.client.Complete(llm.Request{Prompt: llm.AnswerPrompt(query, nil)})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}
