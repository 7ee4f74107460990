package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"racesim/internal/report"
)

// impossibleBudget is an accuracy budget no model can meet — the
// injected out-of-tolerance configuration the CI accuracy gate must
// turn into a failing job.
const impossibleBudget = `{"boards": {"firefly-a53": {"suite": {"min_correlation": 0.999999, "max_mape": 0.000001}}}}`

func TestValidateJobGateFailsOnOutOfToleranceBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation pipeline")
	}
	dir := t.TempDir()
	res, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", Budget1: 200, Budget2: 200, Scale: 0.001, Quiet: true,
		Gate: true, BudgetJSON: json.RawMessage(impossibleBudget), ReportDir: dir,
	}}, Options{Capture: true})
	if err == nil {
		t.Fatal("gate passed an impossible budget; CI would never fail")
	}
	for _, want := range []string{"accuracy budget violated", "firefly-a53/suite", "correlation", "MAPE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error missing %q:\n%v", want, err)
		}
	}

	// The gate fires last: the report artifact and history file are still
	// produced so CI logs show exactly what missed the budget.
	if len(res.Report) == 0 {
		t.Fatal("failed gate dropped the report from the result")
	}
	var rep report.ValidationReport
	if err := json.Unmarshal(res.Report, &rep); err != nil {
		t.Fatalf("result report does not parse: %v", err)
	}
	if rep.Pass {
		t.Error("report claims pass under an impossible budget")
	}
	disk, err := os.ReadFile(filepath.Join(dir, "validate-a53.json"))
	if err != nil {
		t.Fatalf("report history file missing: %v", err)
	}
	if string(disk) != string(res.Report) {
		t.Error("report history bytes differ from Result.Report")
	}
	if !strings.Contains(res.Artifact, "accuracy budget: FAIL") {
		t.Error("artifact missing the rendered FAIL verdict")
	}
	if len(res.TunedConfig) == 0 {
		t.Error("failed gate dropped the tuned config (artifacts must precede the gate)")
	}
}

func TestValidateJobGatePassesWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation pipeline")
	}
	// Loose-but-real bounds the tuned tiny-scale model comfortably meets.
	loose := `{"boards": {"firefly-a53": {"suite": {"min_correlation": 0.5, "max_mape": 0.60}}}}`
	res, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", Budget1: 200, Budget2: 200, Scale: 0.001, Quiet: true,
		Gate: true, BudgetJSON: json.RawMessage(loose),
	}}, Options{Capture: true})
	if err != nil {
		t.Fatalf("gate failed a budget the tuned model meets: %v", err)
	}
	var rep report.ValidationReport
	if err := json.Unmarshal(res.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("report not passing: %s", res.Report)
	}
	if !strings.Contains(res.Artifact, "accuracy budget: PASS") {
		t.Error("artifact missing the rendered PASS verdict")
	}
}

func TestServerReportEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation pipeline")
	}
	srv, err := NewServer(ServerOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	id, code := postJob(t, ts, Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", Budget1: 200, Budget2: 200, Scale: 0.001, Quiet: true,
	}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitDone(t, ts, id)
	if st.Status != "done" {
		t.Fatalf("validate job failed: %s", st.Error)
	}

	// The typed client fetches the report the job produced.
	data, err := NewClient(ts.URL).Report(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.ValidationReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("served report does not parse: %v", err)
	}
	if rep.Version != report.Version || len(rep.Boards) != 1 || rep.Boards[0].Board != "firefly-a53" {
		t.Errorf("served report: version %d, boards %+v", rep.Version, rep.Boards)
	}
	if !rep.Pass {
		t.Error("unconstrained budget must pass")
	}

	// A job that produced no report answers 404 with a hint, not a 200
	// with an empty body.
	runID, _ := postJob(t, ts, Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
	waitDone(t, ts, runID)
	if _, err := NewClient(ts.URL).Report(context.Background(), runID); err == nil ||
		!strings.Contains(err.Error(), "no validation report") {
		t.Errorf("report for report-less job: %v", err)
	}
	if _, err := NewClient(ts.URL).Report(context.Background(), "nope"); err == nil {
		t.Error("report for unknown job must error")
	}
}

func TestServerRejectsPathValuedValidateFields(t *testing.T) {
	for name, job := range map[string]Job{
		"budget_path": {Kind: KindValidate, Validate: &ValidateJob{Core: "a53", BudgetPath: "/etc/x.json"}},
		"report_dir":  {Kind: KindValidate, Validate: &ValidateJob{Core: "a53", ReportDir: "/tmp/reports"}},
	} {
		if err := job.CheckServerSafe(); err == nil {
			t.Errorf("%s: path-valued field accepted over the unauthenticated API", name)
		}
	}
	// The inline form stays server-safe.
	ok := Job{Kind: KindValidate, Validate: &ValidateJob{Core: "a53", BudgetJSON: json.RawMessage(`{}`), Gate: true}}
	if err := ok.CheckServerSafe(); err != nil {
		t.Errorf("inline budget rejected: %v", err)
	}
}

func TestValidateJobRejectsConflictingBudgets(t *testing.T) {
	_, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", BudgetJSON: json.RawMessage(`{}`), BudgetPath: "x.json",
	}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "both") {
		t.Errorf("conflicting budget sources: %v", err)
	}
}

func TestValidateJobRejectsBadBudgetBeforeTuning(t *testing.T) {
	_, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", BudgetJSON: json.RawMessage(`{"boards": {"b": {"suite": {"max_mapee": 1}}}}`),
	}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("typoed budget must fail before tuning starts: %v", err)
	}
}
