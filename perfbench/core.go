package main

import (
	"time"

	"grappolo"
)

// coreRuns accumulates engine runs for the core.* and coloring.* metrics:
// the wall time of the Detect call measured from outside, the stage
// breakdown the Result reports, and the part of the call no stage claims.
type coreRuns struct {
	detect, vf, coloring, clustering, rebuild, unattributed []float64
	phases, iterations, colors, arcRSD                      []float64
}

func (c *coreRuns) add(detect time.Duration, res *grappolo.Result) {
	t := res.Timing
	c.detect = append(c.detect, detect.Seconds())
	c.vf = append(c.vf, t.VF.Seconds())
	c.coloring = append(c.coloring, t.Coloring.Seconds())
	c.clustering = append(c.clustering, t.Clustering.Seconds())
	c.rebuild = append(c.rebuild, t.Rebuild.Seconds())
	c.unattributed = append(c.unattributed, (detect - t.Total()).Seconds())
	c.phases = append(c.phases, float64(len(res.Phases)))
	c.iterations = append(c.iterations, float64(res.TotalIterations))
	if len(res.Phases) > 0 {
		c.colors = append(c.colors, float64(res.Phases[0].NumColors))
		c.arcRSD = append(c.arcRSD, res.Phases[0].ColorArcRSD)
	}
}

// report sets the medians over the runs added.
func (c *coreRuns) report(rep *report) {
	if len(c.detect) == 0 {
		return
	}
	rep.set("core.detect_s", median(c.detect))
	rep.set("core.vf_s", median(c.vf))
	rep.set("core.coloring_s", median(c.coloring))
	rep.set("core.clustering_s", median(c.clustering))
	rep.set("core.rebuild_s", median(c.rebuild))
	rep.set("core.unattributed_s", median(c.unattributed))
	rep.set("core.phases", median(c.phases))
	rep.set("core.iterations", median(c.iterations))
	if len(c.colors) > 0 {
		rep.set("coloring.colors_phase0", median(c.colors))
		rep.set("coloring.arc_rsd_phase0", median(c.arcRSD))
	}
}
