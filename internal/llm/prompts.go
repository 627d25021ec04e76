package llm

import (
	"fmt"
	"regexp"
	"strings"
)

// The simulator understands a small prompt protocol, mirroring the way real
// orchestration frameworks steer an LLM with structured instructions. Each
// builder below produces a prompt; the simulator parses the header to pick
// a task. Free-form prompts without a TASK header are treated as "generate".

// Task headers recognized by the simulator.
const (
	taskAnswer   = "answer"
	taskBridge   = "bridge"
	taskJudge    = "judge"
	taskExtract  = "extract"
	taskClassify = "classify"
	taskGenerate = "generate"
)

// AnswerPrompt builds a question-answering prompt. context documents, if
// any, are the retrieved grounding passages (the RAG case).
func AnswerPrompt(question string, context []string) string {
	var b strings.Builder
	b.WriteString("TASK: answer\nQUESTION: ")
	b.WriteString(question)
	if len(context) > 0 {
		b.WriteString("\nCONTEXT:\n")
		for _, c := range context {
			b.WriteString(c)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// BridgePrompt asks the model to name the bridging entity of a two-hop
// question ("...the entity whose R is X..."), used by iterative RAG.
func BridgePrompt(question string, context []string) string {
	return strings.Replace(AnswerPrompt(question, context), "TASK: answer", "TASK: bridge", 1)
}

// JudgePrompt builds a boolean semantic-filter prompt. criterion uses the
// form "contains:<term>"; the model answers yes/no.
func JudgePrompt(criterion, text string) string {
	return fmt.Sprintf("TASK: judge\nCRITERION: %s\nTEXT: %s", criterion, text)
}

// ExtractPrompt builds an attribute-extraction prompt.
func ExtractPrompt(attribute, text string) string {
	return fmt.Sprintf("TASK: extract\nATTRIBUTE: %s\nTEXT: %s", attribute, text)
}

// ClassifyPrompt builds a classification prompt over the given labels.
func ClassifyPrompt(labels []string, text string) string {
	return fmt.Sprintf("TASK: classify\nLABELS: %s\nTEXT: %s", strings.Join(labels, "|"), text)
}

// Example is a few-shot demonstration: an input with its gold label.
type Example struct {
	Input string
	Label string
}

// ClassifyPromptFewShot builds a classification prompt carrying
// demonstration examples. The simulator models in-context learning: each
// demonstration lowers the effective error rate, and demonstrations
// similar to the text lower it more — which is why demonstration
// *selection* (§2.2.1) matters.
func ClassifyPromptFewShot(labels []string, examples []Example, text string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: classify\nLABELS: %s\n", strings.Join(labels, "|"))
	for _, ex := range examples {
		fmt.Fprintf(&b, "EXAMPLE: %s => %s\n", ex.Input, ex.Label)
	}
	fmt.Fprintf(&b, "TEXT: %s", text)
	return b.String()
}

// IsYes interprets a judge response.
func IsYes(text string) bool { return strings.EqualFold(strings.TrimSpace(text), "yes") }

// Unknown is the simulator's honest "I don't know" answer.
const Unknown = "unknown"

// IsUnknown reports whether an answer is the honest refusal.
func IsUnknown(text string) bool { return strings.EqualFold(strings.TrimSpace(text), Unknown) }

// parsed prompt representation.
type parsedPrompt struct {
	task      string
	question  string
	context   []string
	criterion string
	attribute string
	labels    []string
	examples  []Example
	text      string
	free      string
}

func parsePrompt(prompt string) (parsedPrompt, error) {
	p := parsedPrompt{}
	if !strings.HasPrefix(prompt, "TASK: ") {
		p.task = taskGenerate
		p.free = prompt
		return p, nil
	}
	// TEXT: is always the final field and may itself contain newlines, so
	// split it off before line-based parsing of the remaining fields.
	head := prompt
	if idx := strings.Index(prompt, "\nTEXT: "); idx >= 0 {
		head = prompt[:idx]
		p.text = prompt[idx+len("\nTEXT: "):]
	}
	lines := strings.Split(head, "\n")
	p.task = strings.TrimSpace(strings.TrimPrefix(lines[0], "TASK:"))
	body := lines[1:]
	switch p.task {
	case taskAnswer, taskBridge:
		inCtx := false
		for _, l := range body {
			switch {
			case strings.HasPrefix(l, "QUESTION: "):
				p.question = strings.TrimPrefix(l, "QUESTION: ")
			case l == "CONTEXT:":
				inCtx = true
			case inCtx && l != "":
				p.context = append(p.context, l)
			}
		}
		if p.question == "" {
			return p, fmtErrBadPrompt("answer task missing QUESTION")
		}
	case taskJudge:
		for _, l := range body {
			switch {
			case strings.HasPrefix(l, "CRITERION: "):
				p.criterion = strings.TrimPrefix(l, "CRITERION: ")
			case strings.HasPrefix(l, "TEXT: "):
				p.text = strings.TrimPrefix(l, "TEXT: ")
			}
		}
		if p.criterion == "" {
			return p, fmtErrBadPrompt("judge task missing CRITERION")
		}
	case taskExtract:
		for _, l := range body {
			switch {
			case strings.HasPrefix(l, "ATTRIBUTE: "):
				p.attribute = strings.TrimPrefix(l, "ATTRIBUTE: ")
			case strings.HasPrefix(l, "TEXT: "):
				p.text = strings.TrimPrefix(l, "TEXT: ")
			}
		}
		if p.attribute == "" {
			return p, fmtErrBadPrompt("extract task missing ATTRIBUTE")
		}
	case taskClassify:
		for _, l := range body {
			switch {
			case strings.HasPrefix(l, "LABELS: "):
				p.labels = strings.Split(strings.TrimPrefix(l, "LABELS: "), "|")
			case strings.HasPrefix(l, "EXAMPLE: "):
				parts := strings.SplitN(strings.TrimPrefix(l, "EXAMPLE: "), " => ", 2)
				if len(parts) == 2 {
					p.examples = append(p.examples, Example{Input: parts[0], Label: parts[1]})
				}
			case strings.HasPrefix(l, "TEXT: "):
				p.text = strings.TrimPrefix(l, "TEXT: ")
			}
		}
		if len(p.labels) == 0 {
			return p, fmtErrBadPrompt("classify task missing LABELS")
		}
	case taskGenerate:
		for _, l := range body {
			if strings.HasPrefix(l, "PROMPT: ") {
				p.free = strings.TrimPrefix(l, "PROMPT: ")
			}
		}
	default:
		return p, fmtErrBadPrompt("unknown task " + p.task)
	}
	return p, nil
}

// Question shapes the simulator (and corpus generator) agree on.
var (
	twoHopRe    = regexp.MustCompile(`^What is the (.+) of the entity whose (.+) is (.+)\?$`)
	oneHopRe    = regexp.MustCompile(`^What is the (.+) of (.+)\?$`)
	factStmtRe  = regexp.MustCompile(`The ([a-z][a-z ]*?) of ([A-Z][A-Za-z ]*?) is ([a-z]+)\.`)
	containsPre = "contains:"
)

// factsIn extracts (relation, subject, object) statements from a passage.
func factsIn(passage string) [][3]string {
	var out [][3]string
	for _, m := range factStmtRe.FindAllStringSubmatch(passage, -1) {
		out = append(out, [3]string{m[1], m[2], m[3]})
	}
	return out
}
