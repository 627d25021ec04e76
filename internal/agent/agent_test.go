package agent

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func echoTool(name string) Tool {
	return ToolFunc{ToolName: name, Desc: "echoes input", Fn: func(in string) (string, error) {
		return "echo:" + in, nil
	}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Tool{ToolFunc{ToolName: ""}}); err == nil {
		t.Error("empty tool name accepted")
	}
	if _, err := New([]Tool{echoTool("a"), echoTool("a")}); err == nil {
		t.Error("duplicate tool accepted")
	}
}

func TestRunPipesOutputs(t *testing.T) {
	upper := ToolFunc{ToolName: "upper", Desc: "uppercases", Fn: func(in string) (string, error) {
		return strings.ToUpper(in), nil
	}}
	a, err := New([]Tool{echoTool("echo"), upper})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.Run("hello", []Action{
		{Tool: "echo", Input: "$q"},
		{Tool: "upper", Input: "$prev world"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Answer != "ECHO:HELLO WORLD" {
		t.Errorf("answer = %q", tr.Answer)
	}
	if len(tr.Steps) != 2 || tr.Failed {
		t.Errorf("trace = %+v", tr)
	}
	if tr.Steps[0].Input != "hello" {
		t.Errorf("$q substitution failed: %q", tr.Steps[0].Input)
	}
}

func TestRunUnknownTool(t *testing.T) {
	a, _ := New([]Tool{echoTool("echo")})
	_, err := a.Run("x", []Action{{Tool: "nope", Input: "y"}})
	if !errors.Is(err, ErrUnknownTool) {
		t.Errorf("err = %v", err)
	}
}

func TestRunEmptyPlan(t *testing.T) {
	a, _ := New([]Tool{echoTool("echo")})
	if _, err := a.Run("x", nil); !errors.Is(err, ErrNoSteps) {
		t.Errorf("err = %v", err)
	}
}

func TestReflectionRetriesThenSucceeds(t *testing.T) {
	calls := 0
	flaky := ToolFunc{ToolName: "flaky", Desc: "fails once", Fn: func(in string) (string, error) {
		calls++
		if calls == 1 {
			return "unknown", nil // reflection rejects
		}
		return "good answer", nil
	}}
	a, _ := New([]Tool{flaky}, WithMaxRetries(2))
	tr, err := a.Run("x", []Action{{Tool: "flaky", Input: "go"}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Answer != "good answer" {
		t.Errorf("answer = %q", tr.Answer)
	}
	if tr.Steps[0].Retries != 1 {
		t.Errorf("retries = %d, want 1", tr.Steps[0].Retries)
	}
}

func TestReflectionAbortsAfterRetries(t *testing.T) {
	dead := ToolFunc{ToolName: "dead", Desc: "always unknown", Fn: func(in string) (string, error) {
		return "unknown", nil
	}}
	a, _ := New([]Tool{dead}, WithMaxRetries(2))
	tr, err := a.Run("x", []Action{{Tool: "dead", Input: "go"}})
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v", err)
	}
	if !tr.Failed {
		t.Error("trace not marked failed")
	}
	if tr.Steps[0].Err == "" {
		t.Error("step error not recorded")
	}
}

func TestToolErrorsRetryThenAbort(t *testing.T) {
	calls := 0
	erroring := ToolFunc{ToolName: "err", Desc: "errors", Fn: func(in string) (string, error) {
		calls++
		return "", fmt.Errorf("boom %d", calls)
	}}
	a, _ := New([]Tool{erroring}, WithMaxRetries(1))
	_, err := a.Run("x", []Action{{Tool: "err", Input: "go"}})
	if !errors.Is(err, ErrStepFailed) {
		t.Errorf("err = %v", err)
	}
	if calls != 2 {
		t.Errorf("tool called %d times, want 2 (1 retry)", calls)
	}
}

func TestDescribeAndTools(t *testing.T) {
	a, _ := New([]Tool{echoTool("alpha"), echoTool("beta")})
	d := a.Describe()
	if !strings.Contains(d, "alpha") || !strings.Contains(d, "beta") {
		t.Errorf("Describe = %q", d)
	}
	tools := a.Tools()
	if len(tools) != 2 || tools[0] != "alpha" {
		t.Errorf("Tools = %v", tools)
	}
}

func TestPartialTraceOnMidPlanFailure(t *testing.T) {
	dead := ToolFunc{ToolName: "dead", Desc: "fails", Fn: func(in string) (string, error) {
		return "", errors.New("nope")
	}}
	a, _ := New([]Tool{echoTool("echo"), dead}, WithMaxRetries(0))
	tr, err := a.Run("x", []Action{
		{Tool: "echo", Input: "first"},
		{Tool: "dead", Input: "second"},
		{Tool: "echo", Input: "never"},
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if len(tr.Steps) != 2 {
		t.Errorf("steps recorded = %d, want 2", len(tr.Steps))
	}
	if tr.Answer != "" {
		t.Errorf("answer should be empty on failure, got %q", tr.Answer)
	}
}
