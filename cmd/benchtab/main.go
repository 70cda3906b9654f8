// Command benchtab regenerates the paper's evaluation tables and this
// reproduction's ablations over the built-in benchmark suite (MiniC
// analogs of flex, grep, gzip, sed with nine seeded execution-omission
// faults).
//
// Usage:
//
//	benchtab -table 1          benchmark characteristics (Table 1)
//	benchtab -table 2          RS / DS / PS slice sizes   (Table 2)
//	benchtab -table 3          locator effectiveness      (Table 3)
//	benchtab -table 4          performance                (Table 4)
//	benchtab -table verify     verification engine: sequential vs
//	                           parallel vs cached scheduling
//	benchtab -table all        all of the above
//	benchtab -ablation A|B|C|D ablation experiments (see DESIGN.md)
//	benchtab -reps N           timing repetitions for tables 4/verify
//	benchtab -cases            list the benchmark error cases
//	benchtab -workers N        worker-pool size for -table verify
//	benchtab -cache N          cached-mode cache size for -table verify
//	benchtab -deadline D       wall-clock bound for the whole run ("2m");
//	                           on expiry benchtab exits 1 with [deadline]
//	benchtab -trace FILE       JSONL journal of the observed localizations
//	benchtab -progress         live phase progress on stderr
package main

import (
	"flag"
	"fmt"

	"eol/internal/bench"
	"eol/internal/cliutil"
	"eol/internal/harness"
)

func main() {
	tableFlag := flag.String("table", "", "table to regenerate: 1, 2, 3, 4, verify or all")
	ablFlag := flag.String("ablation", "", "ablation to run: A, B, C or D")
	repsFlag := flag.Int("reps", 20, "timing repetitions for tables 4 and verify")
	casesFlag := flag.Bool("cases", false, "list benchmark error cases")
	deadlineFlag := cliutil.RegisterDeadlineFlag(flag.CommandLine)
	engFlags := cliutil.RegisterEngineFlags(flag.CommandLine)
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	observer, closeObs, err := obsFlags.Observer()
	if err != nil {
		cliutil.Fatalf("benchtab: %v", err)
	}
	ctx, cancel := deadlineFlag.Context()
	defer cancel()
	opt := harness.Options{
		Reps:     *repsFlag,
		Workers:  engFlags.Workers,
		Cache:    engFlags.Cache,
		Observer: observer,
		Ctx:      ctx,
	}

	switch {
	case *casesFlag:
		for _, c := range bench.Cases() {
			fmt.Printf("%-16s %s\n", c.Name(), c.Description)
		}
	case *ablFlag != "":
		out, err := harness.RenderAblation(ctx, *ablFlag)
		if err != nil {
			cliutil.ExitErr("benchtab", err)
		}
		fmt.Print(out)
	case *tableFlag == "all":
		for _, t := range []string{"1", "2", "3", "4", "verify"} {
			out, err := harness.Render(t, opt)
			if err != nil {
				cliutil.ExitErr("benchtab", err)
			}
			fmt.Println(out)
		}
	case *tableFlag != "":
		out, err := harness.Render(*tableFlag, opt)
		if err != nil {
			cliutil.ExitErr("benchtab", err)
		}
		fmt.Print(out)
	default:
		cliutil.Usagef("usage: benchtab -table 1|2|3|4|all | -ablation A|B|C|D | -cases")
	}
	if cerr := closeObs(); cerr != nil {
		cliutil.Fatalf("benchtab: closing -trace journal: %v", cerr)
	}
}
