// Command fkrepro regenerates the paper's tables and figures.
//
// Usage:
//
//	fkrepro -list              # show all experiments
//	fkrepro -run fig9          # run one experiment (comma-separate for more)
//	fkrepro -all               # run everything
//	fkrepro -all -quick        # reduced repetition counts
//	fkrepro -seed 7 -run tab3  # change the simulation seed
//	fkrepro -run fig14 -json fig14.json  # also write the tables as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"faaskeeper/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	runIDs := flag.String("run", "", "comma-separated experiment ids to run")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced repetition counts")
	seed := flag.Int64("seed", 42, "simulation seed")
	jsonFile := flag.String("json", "", "also write the run's reports as JSON to this file")
	flag.Parse()

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %-10s %s\n", e.ID, "("+e.Ref+")", e.Title)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	case *runIDs != "":
		ids = strings.Split(*runIDs, ",")
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick}
	var reports []*experiments.Report
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		rep := e.Run(cfg)
		reports = append(reports, rep)
		fmt.Println(rep.Render())
		fmt.Printf("(%s completed in %.1fs wall-clock)\n\n", id, time.Since(start).Seconds())
	}
	if *jsonFile != "" {
		if err := writeJSON(*jsonFile, reports); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonFile, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d report(s) to %s\n", len(reports), *jsonFile)
	}
}

// writeJSON dumps every report of the run — ids, titles, table sections
// and notes — as an indented JSON array, so CI and notebooks can diff
// the tables without scraping the rendered text.
func writeJSON(path string, reports []*experiments.Report) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
