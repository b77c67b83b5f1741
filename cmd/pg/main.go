// Command pg is the Protocol Generator: the Go counterpart of the Prolog PG
// prototype described in Section 4.2 of the paper, grown into the one
// command-line tool of this repository.
//
// Usage:
//
//	pg derive [flags] service.spec
//	pg verify [flags] service.spec [place=entity.spec ...]
//	pg explore [flags] spec.lotos
//	pg experiments [-quick]
//
// Every specification path may be "-" for stdin. `pg <subcommand> -h` lists
// a subcommand's flags. Exit codes: 0 OK, 1 FAIL (the analysis ran and its
// verdict is negative), 2 usage or parse error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/lotos"
)

var subcommands = []struct {
	name, summary string
	run           func(args []string, stdin io.Reader, stdout, stderr io.Writer) int
}{
	{"derive", "derive the protocol entities of a service (Table 3), with attributes and message complexity", runDerive},
	{"verify", "check the Section-5 correctness relation for derived or given entities", runVerify},
	{"explore", "explore any specification: states, transitions, weak traces, deadlocks", runExplore},
	{"experiments", "regenerate the paper-versus-measured record of EXPERIMENTS.md", runExperiments},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range subcommands {
			if c.name == args[0] {
				return c.run(args[1:], stdin, stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "pg: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: pg <subcommand> [flags] [input]")
	fmt.Fprintln(stderr, "subcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
	}
	return cli.ExitUsage
}

// newFlagSet returns the flag set of one subcommand, reporting to stderr.
func newFlagSet(name, synopsis string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("pg "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pg %s %s\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parseInput parses args into fs and then the specification named by the
// first remaining argument ("-" for stdin). A failure is reported on stderr
// and yields a nil spec; the caller exits with cli.ExitUsage.
func parseInput(fs *flag.FlagSet, args []string, stdin io.Reader, stderr io.Writer) *lotos.Spec {
	if err := fs.Parse(args); err != nil {
		return nil
	}
	sp, err := readSpec(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return nil
	}
	return sp
}

// readSpec reads and parses the specification at path ("-" for stdin).
func readSpec(path string, stdin io.Reader) (*lotos.Spec, error) {
	src, err := cli.ReadInput(path, stdin)
	if err != nil {
		return nil, err
	}
	sp, err := lotos.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	return sp, nil
}

// readEntities parses "place=entity.spec" arguments into the entity map of
// a hand-written protocol.
func readEntities(args []string, stdin io.Reader) (map[int]*lotos.Spec, error) {
	entities := map[int]*lotos.Spec{}
	for _, arg := range args {
		eq := strings.IndexByte(arg, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("entity argument %q is not place=file", arg)
		}
		place, err := strconv.Atoi(arg[:eq])
		if err != nil || place <= 0 {
			return nil, fmt.Errorf("entity argument %q: bad place", arg)
		}
		if _, dup := entities[place]; dup {
			return nil, fmt.Errorf("place %d given twice", place)
		}
		sp, err := readSpec(arg[eq+1:], stdin)
		if err != nil {
			return nil, fmt.Errorf("entity %d: %v", place, err)
		}
		entities[place] = sp
	}
	return entities, nil
}
