package main

import (
	"fmt"
	"math"
	"time"

	"dptrace/internal/experiments"
)

// paperSeed is the seed the paper's evaluation drivers run at: the
// accuracy properties below are the ones internal/experiments asserts
// at this seed.
const paperSeed = 1

// driver is one of the paper's evaluation drivers with the accuracy
// property its internal/experiments test asserts, re-checked here.
type driver struct {
	name  string
	run   func() any
	check func(any) error
}

// paperDrivers is the paper-batch list, in the order it runs.
var paperDrivers = []driver{
	{"fig1", func() any { return experiments.RunFig1(paperSeed, 1.0) }, func(v any) error {
		r := v.(*experiments.Fig1Result)
		final := r.Exact[len(r.Exact)-1]
		switch {
		case r.AbsRMSE1 < 3*r.AbsRMSE2 || r.AbsRMSE1 < 3*r.AbsRMSE3:
			return fmt.Errorf("cdf1 RMSE %v not clearly above cdf2 %v / cdf3 %v", r.AbsRMSE1, r.AbsRMSE2, r.AbsRMSE3)
		case r.AbsRMSE2 > 0.05*final || r.AbsRMSE3 > 0.05*final:
			return fmt.Errorf("cdf2/cdf3 RMSE (%v, %v) not small against %v", r.AbsRMSE2, r.AbsRMSE3, final)
		}
		return nil
	}},
	{"table4", func() any { return experiments.RunTable4(paperSeed, 1.0) }, func(v any) error {
		r := v.(*experiments.Table4Result)
		if r.CorrectTop10 != 10 || !r.OrderPreserved {
			return fmt.Errorf("top-10 %d/10, order preserved %v", r.CorrectTop10, r.OrderPreserved)
		}
		for _, row := range r.Rows {
			if math.Abs(row.PercentErr) > 1 {
				return fmt.Errorf("string %q error %v%%", row.Payload, row.PercentErr)
			}
		}
		return nil
	}},
	{"itemsets", func() any { return experiments.RunItemsets(paperSeed, 1.0) }, func(v any) error {
		if r := v.(*experiments.ItemsetsResult); r.CorrectTop != 5 {
			return fmt.Errorf("planted pairs in top five: %d/5", r.CorrectTop)
		}
		return nil
	}},
	{"fig3", func() any { return experiments.RunFig3(paperSeed) }, func(v any) error {
		r := v.(*experiments.Fig3Result)
		if r.RTTCurves[0].RMSE > 0.10 || r.LossCurves[0].RMSE > 0.10 {
			return fmt.Errorf("RMSE at eps=0.1: rtt %v, loss %v", r.RTTCurves[0].RMSE, r.LossCurves[0].RMSE)
		}
		for i := 1; i < len(r.RTTCurves); i++ {
			if r.RTTCurves[i].RMSE > r.RTTCurves[i-1].RMSE {
				return fmt.Errorf("RTT RMSE not decreasing with eps")
			}
		}
		return nil
	}},
	{"worm", func() any { return experiments.RunWorm(paperSeed) }, func(v any) error {
		r := v.(*experiments.WormResult)
		if len(r.Levels) != 3 {
			return fmt.Errorf("%d privacy levels", len(r.Levels))
		}
		for i := 1; i < len(r.Levels); i++ {
			if r.Levels[i].Recovered < r.Levels[i-1].Recovered {
				return fmt.Errorf("recovery not monotone in eps")
			}
		}
		if r.Levels[0].Recovered > r.Levels[0].Total/2 || r.Levels[2].Recovered != r.Levels[2].Total {
			return fmt.Errorf("recovered %d/%d at strong, %d/%d at weak privacy",
				r.Levels[0].Recovered, r.Levels[0].Total, r.Levels[2].Recovered, r.Levels[2].Total)
		}
		if math.Abs(r.NoisyGroupCount-float64(r.TrueGroupCount)) > 30 {
			return fmt.Errorf("group count %v vs true %d", r.NoisyGroupCount, r.TrueGroupCount)
		}
		return nil
	}},
	{"table5", func() any { return experiments.RunTable5(paperSeed) }, func(v any) error {
		r := v.(*experiments.Table5Result)
		for _, l := range r.Levels {
			if l.K == 0 || float64(l.FalsePositives) > 0.2*float64(l.K) || l.NoisyCorrMean < 0.5 {
				return fmt.Errorf("paper-scale eps=%v: K=%d FP=%d corr=%v", l.Epsilon, l.K, l.FalsePositives, l.NoisyCorrMean)
			}
		}
		sparse := r.SparseLevels
		if sparse[0].K > 5 && sparse[0].FalsePositives < sparse[0].K/2 {
			return fmt.Errorf("low-signal eps=0.1 detected cleanly")
		}
		for _, l := range sparse[1:] {
			if l.K == 0 || float64(l.FalsePositives) > 0.2*float64(l.K) {
				return fmt.Errorf("low-signal eps=%v: K=%d FP=%d", l.Epsilon, l.K, l.FalsePositives)
			}
		}
		return nil
	}},
	{"fig4", func() any { return experiments.RunFig4(paperSeed) }, func(v any) error {
		r := v.(*experiments.Fig4Result)
		injected := map[int]bool{268: true, 269: true, 270: true, 271: true, 272: true}
		hits := func(bins []int) int {
			n := 0
			for _, b := range bins {
				if injected[b] {
					n++
				}
			}
			return n
		}
		if hits(r.TopBinsExact) < 4 {
			return fmt.Errorf("noise-free top bins %v miss the anomaly", r.TopBinsExact)
		}
		for i, c := range r.Curves {
			if hits(r.TopBinsByEps[i]) < 4 {
				return fmt.Errorf("eps=%g top bins %v miss the anomaly", c.Epsilon, r.TopBinsByEps[i])
			}
			if i > 0 && c.RMSE > r.Curves[i-1].RMSE {
				return fmt.Errorf("RMSE not decreasing with eps")
			}
		}
		if r.Curves[1].RMSE > 0.05 {
			return fmt.Errorf("eps=1 RMSE %v", r.Curves[1].RMSE)
		}
		return nil
	}},
	{"fig5", func() any { return experiments.RunFig5(paperSeed) }, func(v any) error {
		r := v.(*experiments.Fig5Result)
		final := func(c experiments.Fig5Curve) float64 { return c.Objective[len(c.Objective)-1] }
		exact, strong, weak := final(r.Curves[0]), final(r.Curves[1]), final(r.Curves[3])
		if weak > exact*1.10 || strong < exact*1.2 {
			return fmt.Errorf("final objectives exact %v, eps=0.1 %v, eps=10 %v", exact, strong, weak)
		}
		for _, c := range r.Curves[1:] {
			if math.Abs(c.Objective[0]-r.Curves[0].Objective[0]) > 1e-9 {
				return fmt.Errorf("curve %s does not share the initialization", c.Label)
			}
		}
		return nil
	}},
	{"em-ablation", func() any { return experiments.RunEMAblation(paperSeed, 1.0) }, func(v any) error {
		// The test averages the objectives over three seeds; at one
		// seed only the accounting contrast and the exact bound hold.
		r := v.(*experiments.EMAblationResult)
		if r.EMMeasurements <= r.KMeansMeasurements {
			return fmt.Errorf("EM measurements %d not above k-means %d", r.EMMeasurements, r.KMeansMeasurements)
		}
		if r.KMeansFinal < r.ExactFinal*0.9 || r.EMFinal < r.ExactFinal*0.9 {
			return fmt.Errorf("private objectives (k-means %v, EM %v) implausibly beat exact %v", r.KMeansFinal, r.EMFinal, r.ExactFinal)
		}
		return nil
	}},
	{"flowcdf", func() any { return experiments.RunFlowCDF(paperSeed) }, func(v any) error {
		// No internal/experiments test covers this driver; the property
		// checked is the one its doc comment states: sketch-limited
		// error at weak privacy, larger error at strong privacy.
		r := v.(*experiments.FlowCDFResult)
		strong, weak := r.Points[0].RMSE, r.Points[len(r.Points)-1].RMSE
		if weak > 0.10 || weak > strong {
			return fmt.Errorf("flow-size CDF RMSE %v at strong, %v at weak privacy", strong, weak)
		}
		return nil
	}},
}

// driverRun is one timed driver.
type driverRun struct {
	name string
	secs float64
	err  error
}

// runDrivers runs the named drivers in order, timing each and checking
// its accuracy property. tr, when tracing, records a span per driver.
func runDrivers(names []string, tr *tracer) []driverRun {
	var out []driverRun
	for _, name := range names {
		for _, d := range paperDrivers {
			if d.name != name {
				continue
			}
			var res any
			start := time.Now()
			tr.direct("experiments.run", d.name, func() { res = d.run() })
			secs := time.Since(start).Seconds()
			out = append(out, driverRun{name: d.name, secs: secs, err: d.check(res)})
		}
	}
	return out
}

// driverNames lists every paper-batch driver in order.
func driverNames() []string {
	names := make([]string, len(paperDrivers))
	for i, d := range paperDrivers {
		names[i] = d.name
	}
	return names
}
