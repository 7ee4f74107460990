package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	res, err := Execute(Job{Kind: KindValidate, Validate: &ValidateJob{
		Core: "a53", Budget1: 200, Budget2: 200, Scale: 0.001, Quiet: true,
		Gate: true, BudgetJSON: json.RawMessage(impossibleBudget),
	}}, Options{Capture: true})
	if err == nil {
		t.Fatal("gate passed an impossible budget; CI would never fail")
	}
	for _, want := range []string{"accuracy budget violated", "firefly-a53/suite", "correlation", "MAPE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error missing %q:\n%v", want, err)
		}
	}

	// The gate fires last: the result still carries the report and the
	// tuned configuration, so CI shows exactly what missed the budget.
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

// TestServerStatusCarriesReport: a validate job's report is read from its
// status, GET /v1/jobs/{id}, beside the artifact; a job of another kind
// carries none.
func TestServerStatusCarriesReport(t *testing.T) {
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
	var rep report.ValidationReport
	if err := json.Unmarshal(st.Result.Report, &rep); err != nil {
		t.Fatalf("status report does not parse: %v", err)
	}
	if rep.Version != report.Version || len(rep.Boards) != 1 || rep.Boards[0].Board != "firefly-a53" {
		t.Errorf("status report: version %d, boards %+v", rep.Version, rep.Boards)
	}
	if !rep.Pass {
		t.Error("unconstrained budget must pass")
	}
	if !strings.Contains(st.Result.Artifact, "validation report: firefly-a53") {
		t.Error("status artifact misses the rendered report")
	}

	runID, _ := postJob(t, ts, Job{Kind: KindRun, Run: &RunJob{Ubench: "MD", Scale: 0.002}})
	if st := waitDone(t, ts, runID); st.Status != "done" || len(st.Result.Report) != 0 {
		t.Errorf("run job: status %s, report %q", st.Status, st.Result.Report)
	}
}

// TestCheckServerSafeNamesThePathFields: CheckServerSafe refuses exactly the
// five path-valued fields, and names each; the inline inputs pass.
func TestCheckServerSafeNamesThePathFields(t *testing.T) {
	for field, job := range map[string]Job{
		"run.trace_path":            {Kind: KindRun, Run: &RunJob{TracePath: "/etc/passwd"}},
		"experiments.manifest":      {Kind: KindExperiments, Experiments: &ExperimentsJob{Manifest: "/etc/m.json"}},
		"experiments.save_manifest": {Kind: KindExperiments, Experiments: &ExperimentsJob{SaveManifest: "/tmp/m.json"}},
		"ubench.dump":               {Kind: KindUbench, Ubench: &UbenchJob{Dump: "MD"}},
		"ubench.dump_out":           {Kind: KindUbench, Ubench: &UbenchJob{DumpOut: "/tmp/x.rift"}},
	} {
		if err := job.CheckServerSafe(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: %v", field, err)
		}
	}
	for _, job := range []Job{
		{Kind: KindRun, Run: &RunJob{ConfigJSON: json.RawMessage(`{}`), Ubench: "MD"}},
		{Kind: KindValidate, Validate: &ValidateJob{Core: "a53", BudgetJSON: json.RawMessage(`{}`), Gate: true}},
		{Kind: KindExperiments, Experiments: &ExperimentsJob{Scenario: "table1"}},
	} {
		if err := job.CheckServerSafe(); err != nil {
			t.Errorf("inline %s job rejected: %v", job.Kind, err)
		}
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
