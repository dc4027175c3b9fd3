package exp

import (
	"fmt"
	"strings"

	"twodprof/internal/bpred"
	"twodprof/internal/engine"
	"twodprof/internal/ifconv"
	"twodprof/internal/metrics"
	"twodprof/internal/pipeline"
	"twodprof/internal/progs"
	"twodprof/internal/textplot"
	"twodprof/internal/trace"
	"twodprof/internal/vm"
)

func init() {
	register("ext-ifconv", "extension: real if-conversion of VM kernels gated by 2D verdicts, timed end to end", runExtIfconv)
}

// IfconvCompiler names a candidate-selection policy.
type IfconvCompiler string

// The compared compilers.
const (
	CompNever IfconvCompiler = "never" // keep every branch
	CompAll   IfconvCompiler = "all"   // predicate every candidate
	CompTrust IfconvCompiler = "trust" // equation (3) on the train profile
	// Comp2D keeps a 2D-flagged branch only when its profile variation
	// could flip the equation-(3) decision — the paper's "especially
	// for those branches with misprediction rates close to 7%": an
	// input-dependent branch that is hard on every input is still safe
	// to predicate.
	Comp2D IfconvCompiler = "2d-gated"
	// CompWish is the 2D-gated program with the remaining flagged,
	// band-unstable equation-(3) candidates compiled as wish branches
	// (predicated fallback; mispredictions recover without flushing).
	CompWish   IfconvCompiler = "2d-wish"
	CompOracle IfconvCompiler = "oracle" // equation (3) on each input's own measurements
)

// ExtIfconvRow is one (kernel, input) timing comparison.
type ExtIfconvRow struct {
	Kernel     string
	Input      string
	Candidates int
	Cycles     map[IfconvCompiler]int64
}

// ExtIfconv closes the paper's §2.1 loop on real programs: hammocks in
// the VM kernels are actually if-converted (internal/ifconv), programs
// re-run under the timing model, and the selection is gated by the
// train profile with or without 2D-profiling's verdicts. All program
// outputs are verified identical across versions.
type ExtIfconv struct {
	Rows []ExtIfconvRow
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// decideEq3 applies equation (3) with pipeline-flavoured costs.
func decideEq3(p *vm.Program, c ifconv.Candidate, pTaken, pMisp float64) bool {
	costN, costT := ifconv.ArmCosts(p, c)
	branchCost := pTaken*float64(costT) + (1-pTaken)*float64(costN) + pMisp*30
	predCost := float64(ifconv.PredicatedCost(p, c))
	return branchCost > predCost
}

func runExtIfconv(ctx *Context) (Result, error) {
	pipeCfg := pipeline.DefaultConfig()
	f := &ExtIfconv{}
	for _, kernel := range progs.KernelNames() {
		k, _ := progs.KernelByName(kernel)
		cands := ifconv.FindCandidates(k.Prog)
		if len(cands) == 0 {
			continue
		}

		// Profile the train input: taken rates, misprediction rates
		// and 2D verdicts in a single pass.
		trainInst, err := progs.StandardInput(kernel, "train")
		if err != nil {
			return nil, err
		}
		cfg2d := ctx.Config
		cfg2d.SliceSize = 8000
		cfg2d.ExecThreshold = 20
		// The engine is a trace.Sink, so one run feeds the 2D profile,
		// the accounting and the bias profile through a tee.
		eng, err := engine.New(cfg2d, engine.Options{Predictor: ctx.ProfPred})
		if err != nil {
			return nil, err
		}
		accPred, err := bpred.New(ctx.ProfPred)
		if err != nil {
			return nil, err
		}
		acct := bpred.NewAccounting(accPred)
		bias := metrics.NewBiasProfile()
		trainInst.Run(trace.Tee{eng, acct, bias})
		rep, err := eng.Finish()
		if err != nil {
			return nil, err
		}

		profileOf := func(a *bpred.Accounting, b *metrics.BiasProfile, c ifconv.Candidate) (float64, float64) {
			pc := trace.PC(c.BranchIdx)
			return b.Site(pc).Rate() / 100, a.Site(pc).MispredictRate() / 100
		}

		// Static selections from the train profile.
		selections := map[IfconvCompiler][]ifconv.Candidate{
			CompNever: nil,
			CompAll:   cands,
			CompTrust: nil,
			Comp2D:    nil,
		}
		for _, c := range cands {
			pT, pM := profileOf(acct, bias, c)
			point := decideEq3(k.Prog, c, pT, pM)
			if point {
				selections[CompTrust] = append(selections[CompTrust], c)
			}
			// The 2D-gated compiler widens the misprediction estimate
			// of a flagged branch by ±2 slice-std and predicates only
			// when the decision is stable across the whole band.
			br := rep.Branches[trace.PC(c.BranchIdx)]
			if br.InputDependent {
				band := 2 * br.Std / 100
				lo := decideEq3(k.Prog, c, pT, clamp01(pM-band))
				hi := decideEq3(k.Prog, c, pT, clamp01(pM+band))
				if point && lo && hi {
					selections[Comp2D] = append(selections[Comp2D], c)
				}
			} else if point {
				selections[Comp2D] = append(selections[Comp2D], c)
			}
		}

		// Pre-convert the static variants once.
		programs := map[IfconvCompiler]*vm.Program{}
		var gatedMap []int
		for comp, sel := range selections {
			conv, idxMap, err := ifconv.Convert(k.Prog, sel)
			if err != nil {
				return nil, err
			}
			programs[comp] = conv
			if comp == Comp2D {
				gatedMap = idxMap
			}
		}

		// The wish compiler uses the 2D-gated program and compiles the
		// remaining equation-(3) candidates (flagged, band-unstable) as
		// wish branches: predicated fallback code lets a misprediction
		// recover without a flush, at a per-execution overhead.
		gatedSet := map[int]bool{}
		for _, c := range selections[Comp2D] {
			gatedSet[c.BranchIdx] = true
		}
		wishCosts := map[uint64]pipeline.WishCost{}
		for _, c := range selections[CompTrust] {
			if gatedSet[c.BranchIdx] {
				continue
			}
			costN, costT := ifconv.ArmCosts(k.Prog, c)
			predCost := int64(ifconv.PredicatedCost(k.Prog, c))
			avgArm := int64(costN+costT) / 2
			extra := predCost - avgArm
			if extra < 0 {
				extra = 0
			}
			newPC := uint64(gatedMap[c.BranchIdx])
			wishCosts[newPC] = pipeline.WishCost{
				Extra:    extra,
				Recovery: 2 + predCost/2,
			}
		}
		programs[CompWish] = programs[Comp2D]

		inputs := []string{"train", "ref"}
		for _, input := range inputs {
			inst, err := progs.StandardInput(kernel, input)
			if err != nil {
				return nil, err
			}
			row := ExtIfconvRow{
				Kernel: kernel, Input: input,
				Candidates: len(cands),
				Cycles:     map[IfconvCompiler]int64{},
			}

			// Reference output for the equivalence check.
			var wantOut []int64
			{
				m := vm.NewMachine(len(inst.Mem))
				copy(m.Mem, inst.Mem)
				res, err := m.Run(k.Prog, vm.Hooks{})
				if err != nil {
					return nil, err
				}
				wantOut = res.Output
			}

			// Oracle: equation (3) with this input's own measurements.
			inAcct := bpred.Measure(inst, bpred.MustNew(ctx.ProfPred))
			inBias := metrics.MeasureBias(inst)
			var oracleSel []ifconv.Candidate
			for _, c := range cands {
				pT, pM := profileOf(inAcct, inBias, c)
				if decideEq3(k.Prog, c, pT, pM) {
					oracleSel = append(oracleSel, c)
				}
			}
			oracleProg, _, err := ifconv.Convert(k.Prog, oracleSel)
			if err != nil {
				return nil, err
			}

			runVariant := func(comp IfconvCompiler, prog *vm.Program) error {
				p, err := bpred.New(ctx.ProfPred)
				if err != nil {
					return err
				}
				cfg := pipeCfg
				if comp == CompWish {
					cfg.Wish = wishCosts
				}
				res, err := pipeline.Run(prog, inst.Mem, p, cfg, vm.Limits{})
				if err != nil {
					return fmt.Errorf("%s/%s/%s: %w", kernel, input, comp, err)
				}
				row.Cycles[comp] = res.Cycles
				// Equivalence check against the original program.
				m := vm.NewMachine(len(inst.Mem))
				copy(m.Mem, inst.Mem)
				vres, err := m.Run(prog, vm.Hooks{})
				if err != nil {
					return err
				}
				if len(vres.Output) != len(wantOut) {
					return fmt.Errorf("%s/%s/%s: output length changed", kernel, input, comp)
				}
				for i := range wantOut {
					if vres.Output[i] != wantOut[i] {
						return fmt.Errorf("%s/%s/%s: output[%d] %d != %d",
							kernel, input, comp, i, vres.Output[i], wantOut[i])
					}
				}
				return nil
			}
			for comp, prog := range programs {
				if err := runVariant(comp, prog); err != nil {
					return nil, err
				}
			}
			if err := runVariant(CompOracle, oracleProg); err != nil {
				return nil, err
			}
			f.Rows = append(f.Rows, row)
		}
	}
	return f, nil
}

// ID implements Result.
func (f *ExtIfconv) ID() string { return "ext-ifconv" }

// String implements Result.
func (f *ExtIfconv) String() string {
	var b strings.Builder
	b.WriteString("Extension: real if-conversion gated by 2D verdicts (timing model cycles)\n")
	b.WriteString("(every variant's program output verified identical to the original)\n\n")
	comps := []IfconvCompiler{CompNever, CompAll, CompTrust, Comp2D, CompWish, CompOracle}
	header := []string{"kernel", "input", "cands"}
	for _, c := range comps {
		header = append(header, string(c))
	}
	t := textplot.NewTable(header...)
	for _, r := range f.Rows {
		row := []interface{}{r.Kernel, r.Input, r.Candidates}
		for _, c := range comps {
			row = append(row, fmt.Sprintf("%d", r.Cycles[c]))
		}
		t.AddRowf(row...)
	}
	b.WriteString(t.String())
	b.WriteString("\n(predication removes hammock branches from the dynamic stream; the\n 2D-gated compiler predicates only branches whose profile can be trusted)\n")
	return b.String()
}
