package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"racesim/internal/engine"
)

// stdoutOf runs cmd with os.Stdout sent to a file and returns what it
// printed there.
func stdoutOf(t *testing.T, cmd func([]string) error, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = cmd(args)
	os.Stdout = saved
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// readFile returns the bytes of a file a command wrote.
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s was not written: %v", path, err)
	}
	return string(data)
}

// TestFlagFilesAreTheJobsInlineFields: the file flags are the CLI's file
// I/O around one engine job. validate -budgets reads its file into
// budget_json, and a -gate violation fails the command with -report-dir's
// and -out's files already written, holding the bytes of the job's
// result.report and result.tuned_config; run -config reads that file into
// config_json; experiments -out writes result.artifact, which is also what
// the command printed.
func TestFlagFilesAreTheJobsInlineFields(t *testing.T) {
	if testing.Short() {
		t.Skip("validation pipeline")
	}
	dir := t.TempDir()
	budget := filepath.Join(dir, "budget.json")
	impossible := `{"boards": {"firefly-a53": {"suite": {"min_correlation": 0.999999, "max_mape": 0.000001}}}}`
	if err := os.WriteFile(budget, []byte(impossible), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "c.snap")
	reports := filepath.Join(dir, "reports")
	tuned := filepath.Join(dir, "tuned.json")
	validate := &engine.ValidateJob{Core: "a53", Budget1: 100, Budget2: 120, Scale: 0.001, Quiet: true,
		BudgetJSON: json.RawMessage(impossible), Gate: true}

	out, err := stdoutOf(t, cmdValidate, "-core", "a53", "-budget1", "100", "-budget2", "120", "-scale", "0.001", "-q",
		"-budgets", budget, "-report-dir", reports, "-out", tuned, "-gate", "-cache", snap)
	if err == nil || !strings.Contains(err.Error(), "accuracy budget violated") {
		t.Fatalf("validate -gate under an impossible budget: %v", err)
	}
	res, jobErr := engine.Execute(engine.Job{Kind: engine.KindValidate, Validate: validate},
		engine.Options{CachePath: snap, Capture: true})
	if jobErr == nil || jobErr.Error() != err.Error() {
		t.Errorf("the job fails with %v, the command with %v", jobErr, err)
	}
	if out != res.Artifact {
		t.Errorf("validate printed:\n%s\nthe job's artifact:\n%s", out, res.Artifact)
	}
	if got := readFile(t, filepath.Join(reports, "validate-a53.json")); got != string(res.Report) {
		t.Errorf("-report-dir wrote:\n%s\nresult.report:\n%s", got, res.Report)
	}
	if got := readFile(t, tuned); got != string(res.TunedConfig) {
		t.Errorf("-out wrote:\n%s\nresult.tuned_config:\n%s", got, res.TunedConfig)
	}

	out, err = stdoutOf(t, cmdRun, "-config", tuned, "-ubench", "MD,CS1", "-scale", "0.001", "-cache", snap)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.Execute(engine.Job{Kind: engine.KindRun, Run: &engine.RunJob{
		ConfigJSON: res.TunedConfig, Ubench: "MD,CS1", Scale: 0.001,
	}}, engine.Options{CachePath: snap, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if out != run.Artifact || !strings.Contains(out, "MD") {
		t.Errorf("run -config printed:\n%s\nthe config_json job's artifact:\n%s", out, run.Artifact)
	}

	rendered := filepath.Join(dir, "table1.md")
	out, err = stdoutOf(t, cmdExperiments, "-scenario", "table1", "-scale", "0.001", "-q", "-out", rendered)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := engine.Execute(engine.Job{Kind: engine.KindExperiments, Experiments: &engine.ExperimentsJob{
		Scenario: "table1", Scale: 0.001, Quiet: true,
	}}, engine.Options{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, rendered); got != exp.Artifact || got != out || exp.Artifact == "" {
		t.Errorf("experiments -out wrote:\n%s\nprinted:\n%s\nthe job's artifact:\n%s", got, out, exp.Artifact)
	}
}

// TestEmptyFlagFileFails: a -config or -budgets file with nothing in it
// fails the command, naming the file, instead of reading as no input.
func TestEmptyFlagFileFails(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := stdoutOf(t, cmdRun, "-config", empty, "-ubench", "MD"); err == nil || !strings.Contains(err.Error(), empty) {
		t.Errorf("run -config <empty file>: %v", err)
	}
	if _, err := stdoutOf(t, cmdValidate, "-budgets", empty); err == nil || !strings.Contains(err.Error(), empty) {
		t.Errorf("validate -budgets <empty file>: %v", err)
	}
}
