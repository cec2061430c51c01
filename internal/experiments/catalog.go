package experiments

import "fmt"

// Experiment is one result of the paper's evaluation as cmd/plbench offers
// it: how it is selected, where its CSV goes and how it is produced.
type Experiment struct {
	// Kind and ID are the selector: plbench's -fig, -sec and -table flags
	// list IDs of that Kind; the "security" kind is the -security switch and
	// has no ID.
	Kind, ID string
	// CSV names the result's file under -csv ("" writes none).
	CSV string
	Run func(*Runner) (fmt.Stringer, error)
}

// Catalog is the evaluation, in the order plbench -all prints it. A new
// result is one entry here and its Run function.
var Catalog = []Experiment{
	{Kind: "table", ID: "1", Run: func(*Runner) (fmt.Stringer, error) {
		return text(ArchTable() + "\n" + HardwareTable()), nil
	}},
	{Kind: "fig", ID: "1", CSV: "figure1", Run: entry(RunFigure1)},
	{Kind: "fig", ID: "2", Run: entry(RunFigure2)},
	{Kind: "fig", ID: "7", CSV: "figure7", Run: func(r *Runner) (fmt.Stringer, error) {
		return RunCPIFigure(r, "Figure 7 (SPEC17)", "SPEC17")
	}},
	{Kind: "fig", ID: "8", CSV: "figure8", Run: func(r *Runner) (fmt.Stringer, error) {
		return RunCPIFigure(r, "Figure 8 (SPLASH2+PARSEC)", "SPLASH2", "PARSEC")
	}},
	{Kind: "fig", ID: "9", CSV: "figure9", Run: entry(RunFigure9)},
	{Kind: "sec", ID: "9.1.3", CSV: "traffic", Run: entry(RunTraffic)},
	{Kind: "sec", ID: "9.2.1", Run: entry(RunCSTStudy)},
	{Kind: "sec", ID: "9.2.2", Run: entry(RunCPTStudy)},
	{Kind: "sec", ID: "9.2.3", CSV: "wd_study", Run: entry(RunWdStudy)},
	{Kind: "sec", ID: "9.2.4", Run: func(*Runner) (fmt.Stringer, error) { return text(HardwareTable()), nil }},
	{Kind: "security", Run: func(r *Runner) (fmt.Stringer, error) { return RunSecurityMatrix(r.P.Seed) }},
}

// entry adapts a typed Run function to the catalog's signature.
func entry[T fmt.Stringer](run func(*Runner) (T, error)) func(*Runner) (fmt.Stringer, error) {
	return func(r *Runner) (fmt.Stringer, error) { return run(r) }
}

// text is a result that is already rendered.
type text string

func (t text) String() string { return string(t) }
