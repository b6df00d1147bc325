// Command pbsolve is a standalone pseudo-Boolean solver over the OPB
// format (the role MiniSAT+ plays in the paper's §3.3.2). It reads an
// instance from a file or stdin, solves (optimizing when the instance has
// a "min:" objective), and prints the result in the competition-style
// "s/o/v" line format.
//
//	pbsolve instance.opb
//	pbsolve -budget 100000 < instance.opb
//	pbsolve -export-fig3 4        # export the paper's Fig. 3 instance
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/workload"
)

var (
	budget     = flag.Int64("budget", 0, "conflict budget per solve (0 = unlimited)")
	exportFig3 = flag.Int64("export-fig3", 0, "print the Fig. 3 scheduling instance for the given capacity (units) and exit")
	stats      = flag.Bool("stats", false, "print solver statistics to stderr")
	traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the parse + solve to this file")
	metricsF   = flag.Bool("metrics", false, "print the metrics registry to stderr after solving")
)

func main() {
	flag.Parse()

	if *exportFig3 > 0 {
		g, _, err := workload.Spec{Template: "fig3"}.Build()
		if err != nil {
			log.Fatal(err)
		}
		f, err := pb.Formulate(g, *exportFig3)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Instance().EncodeOPB(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	var o *obs.Observer
	if *traceOut != "" || *metricsF {
		o = obs.New()
	}

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		fh, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		r = fh
	}
	sp := o.T().Begin("pb:parse", "compile")
	ins, err := pb.ParseOPB(r)
	sp.End()
	if err != nil {
		log.Fatal(err)
	}
	s, err := ins.ToSolver()
	if err != nil {
		log.Fatal(err)
	}
	s.MaxConflicts = *budget

	var model []bool
	status := "UNKNOWN"
	sp = o.T().Begin("pb:solve", "compile").
		SetArgf("vars", "%d", ins.NVars).
		SetArgf("constraints", "%d", len(ins.Constraints))
	if len(ins.Objective) > 0 {
		res, err := pb.Minimize(s, ins.Objective)
		if err != nil {
			log.Fatal(err)
		}
		switch res.Status {
		case pb.Sat:
			status = "OPTIMUM FOUND"
			fmt.Printf("o %d\n", res.Cost)
		case pb.Unknown:
			if res.Model != nil {
				status = "SATISFIABLE"
				fmt.Printf("o %d\n", res.Cost)
			}
		case pb.Unsat:
			status = "UNSATISFIABLE"
		}
		model = res.Model
	} else {
		switch s.Solve() {
		case pb.Sat:
			status = "SATISFIABLE"
			model = s.Model()
		case pb.Unsat:
			status = "UNSATISFIABLE"
		}
	}
	sp.SetArg("status", status).
		SetArgf("conflicts", "%d", s.Conflicts).End()
	if o != nil {
		m := o.M()
		m.Counter("pb.conflicts").Add(s.Conflicts)
		m.Counter("pb.decisions").Add(s.Decisions)
		m.Counter("pb.propagations").Add(s.Propagations)
		m.Gauge("pb.vars").Set(float64(s.NVars()))
	}
	fmt.Printf("s %s\n", status)
	if model != nil {
		var b strings.Builder
		b.WriteString("v")
		for v := 1; v <= ins.NVars; v++ {
			if model[v] {
				fmt.Fprintf(&b, " x%d", v)
			} else {
				fmt.Fprintf(&b, " -x%d", v)
			}
		}
		fmt.Println(b.String())
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "c conflicts=%d decisions=%d propagations=%d vars=%d\n",
			s.Conflicts, s.Decisions, s.Propagations, s.NVars())
	}
	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := o.T().WriteChrome(fh); err != nil {
			log.Fatal(err)
		}
		fh.Close()
	}
	if *metricsF {
		if err := o.M().WritePrometheus(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
	if status == "UNSATISFIABLE" {
		os.Exit(20)
	}
	if status == "SATISFIABLE" || status == "OPTIMUM FOUND" {
		os.Exit(0)
	}
	os.Exit(1)
}
