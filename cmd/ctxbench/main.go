// Command ctxbench regenerates every table and figure of the paper's
// evaluation:
//
//	ctxbench -fig 9          # Figure 9  (Call Forwarding application)
//	ctxbench -fig 10         # Figure 10 (RFID data anomalies application)
//	ctxbench -casestudy      # Section 5.2 survival/precision + rule study
//	ctxbench -ablation       # design-choice ablations (window, bad-marking)
//	ctxbench -all            # everything above
//
// Use -groups to change the number of experiment groups per data point
// (paper: 20), -seed for reproducibility, and -csv to also emit CSV files
// into the given directory. Output is deterministic given -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ctxres/internal/experiment"
	"ctxres/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ctxbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ctxbench", flag.ContinueOnError)
	var (
		fig       = fs.Int("fig", 0, "reproduce figure 9 or 10")
		caseStudy = fs.Bool("casestudy", false, "run the Section 5.2 Landmarc case study")
		ablation  = fs.Bool("ablation", false, "run the design-choice ablations")
		all       = fs.Bool("all", false, "run every experiment")
		groups    = fs.Int("groups", 20, "experiment groups per data point")
		seed      = fs.Int64("seed", 20080617, "base random seed")
		csvDir    = fs.String("csv", "", "also write CSV files into this directory")
		strats    = fs.String("strategies", "", "comma-separated strategy list for the figures "+
			"(default: the paper's four; try OPT-R,D-BAD,D-BAD+I,D-LAT,D-ALL,D-RAND,P-OLD)")
		version = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, telemetry.VersionString("ctxbench"))
		return nil
	}
	if !*all && *fig == 0 && !*caseStudy && !*ablation {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -fig 9, -fig 10, -casestudy, -ablation or -all")
	}

	cfg := experiment.DefaultFigureConfig()
	cfg.Groups = *groups
	cfg.Seed = *seed
	if *strats != "" {
		names, err := experiment.ParseStrategies(*strats)
		if err != nil {
			return err
		}
		cfg.Strategies = names
	}

	if *all || *fig == 9 {
		if err := runFigure(out, "Figure 9", experiment.CallForwardingApp(), cfg, *csvDir); err != nil {
			return err
		}
	}
	if *all || *fig == 10 {
		if err := runFigure(out, "Figure 10", experiment.RFIDApp(), cfg, *csvDir); err != nil {
			return err
		}
	}
	if *all || *caseStudy {
		csCfg := experiment.DefaultCaseStudyConfig()
		csCfg.Seed = *seed
		if *groups < csCfg.Groups {
			csCfg.Groups = *groups
		}
		res, err := experiment.RunCaseStudy(csCfg)
		if err != nil {
			return fmt.Errorf("case study: %w", err)
		}
		fmt.Fprintln(out, experiment.FormatCaseStudy(res))
	}
	if *all || *ablation {
		abl, err := experiment.RunAblations(experiment.AblationConfig{
			Groups: min(*groups, 8),
			Seed:   *seed,
		})
		if err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		fmt.Fprintln(out, experiment.FormatAblations(abl))
	}
	return nil
}

func runFigure(out io.Writer, title string, spec experiment.AppSpec, cfg experiment.FigureConfig, csvDir string) error {
	fig, err := experiment.RunFigure(spec, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", title, err)
	}
	fmt.Fprintln(out, experiment.FormatFigure(fig, title))
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("%s: %w", title, err)
		}
		path := filepath.Join(csvDir, fig.App+".csv")
		if err := os.WriteFile(path, []byte(experiment.FigureCSV(fig)), 0o644); err != nil {
			return fmt.Errorf("%s: %w", title, err)
		}
		fmt.Fprintf(out, "  csv written to %s\n\n", path)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
