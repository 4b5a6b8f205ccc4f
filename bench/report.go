package main

import (
	"bufio"
	"encoding/json"
)

// The -json file: per workload, every end-to-end metric with its value,
// the median and quartiles over passes and the pass count, and every
// per-layer metric.
type jsonReport struct {
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Passes    int            `json:"passes"`
	Workloads []jsonWorkload `json:"workloads"`
}

type jsonWorkload struct {
	Name                string       `json:"name"`
	Preset              string       `json:"preset"`
	Correct             bool         `json:"correct"`
	Attempted           int64        `json:"attempted"`
	Failed              int64        `json:"failed"`
	Failures            []string     `json:"failures,omitempty"`
	PresetFieldsMissing []string     `json:"preset_fields_missing"`
	EndToEnd            []jsonE2E    `json:"end_to_end,omitempty"`
	PerLayer            []jsonMetric `json:"per_layer,omitempty"`
}

type jsonMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type jsonE2E struct {
	jsonMetric
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func writeJSONReport(path string, o options, reports []workloadReport) error {
	rep := jsonReport{Seed: o.seed, Seconds: o.scale * fullSeconds, Passes: o.passes}
	for _, r := range reports {
		attempted, failed := r.totals()
		jw := jsonWorkload{
			Name: r.w.name, Preset: r.w.preset,
			Correct: failed == 0, Attempted: attempted, Failed: failed,
			PresetFieldsMissing: append([]string{}, r.missing...),
		}
		if r.e2e != nil {
			jw.Failures = append(jw.Failures, r.e2e.failures...)
			for _, m := range r.e2e.metrics {
				q1, med, q3 := m.quartiles()
				jw.EndToEnd = append(jw.EndToEnd, jsonE2E{
					jsonMetric: jsonMetric{m.name, m.unit, m.value},
					Median:     med, Q1: q1, Q3: q3, N: len(m.perPass),
				})
			}
		}
		if r.layers != nil {
			jw.Failures = append(jw.Failures, r.layers.failures...)
			for _, m := range r.layers.metrics {
				jw.PerLayer = append(jw.PerLayer, jsonMetric{m.name, m.unit, m.value})
			}
		}
		rep.Workloads = append(rep.Workloads, jw)
	}
	return writeFile(path, func(out *bufio.Writer) error {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
}
