// Command samie-lint runs the repository's invariant analyzers
// (internal/lint) over a set of packages.
//
// Standalone:
//
//	samie-lint ./...
//	samie-lint -json ./...
//	samie-lint -analyzers mapiter,detpure ./internal/experiments
//
// Exit codes (the pre-commit contract): 0 — clean; 1 — one or more
// findings; 2 — usage or load error (a finding was *not* proven
// absent). -json writes one {"file","line","column","analyzer",
// "message"} object per finding as a JSON array on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"samielsq/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: samie-lint [-json] [-analyzers a,b] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	analyzers := lint.All()
	if *names != "" {
		analyzers = analyzers[:0:0]
		for _, n := range strings.Split(*names, ",") {
			a := lint.Lookup(strings.TrimSpace(n))
			if a == nil {
				fmt.Fprintf(os.Stderr, "samie-lint: unknown analyzer %q (use -list)\n", n)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := lint.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
