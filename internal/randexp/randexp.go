// Package randexp forwards the sampling entry point under its former names
// for the benchmark module; the sampler lives in internal/engine as
// engine.Sample.
package randexp

import "repro/internal/engine"

// Config is engine.SampleConfig.
type Config = engine.SampleConfig

// Report is engine.SampleReport.
type Report = engine.SampleReport

// SamplerPCT is engine.SamplerPCT.
const SamplerPCT = engine.SamplerPCT

// Run is engine.Sample.
func Run(h engine.Harness, cfg Config) (Report, error) { return engine.Sample(h, cfg) }
