// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus
// micro-benchmarks of the load-bearing primitives. Each paper-artifact
// benchmark reports the headline quantity it reproduces as a custom
// metric, so the run's output doubles as a results record:
// `go test -run '^$' -bench=. -benchmem . | tee bench_output.txt` keeps
// one. The record is not committed; its timings belong to the machine
// that ran it.
package menos_test

import (
	"bytes"
	"testing"

	"menos"
	"menos/internal/costmodel"
	"menos/internal/data"
	"menos/internal/experiments"
	"menos/internal/model"
	"menos/internal/sched"
	"menos/internal/split"
	"menos/internal/splitsim"
	"menos/internal/tensor"
)

func benchOpts() experiments.Options {
	return experiments.Options{Iterations: 10, Steps: 25, Seed: 1}
}

// BenchmarkMeasurementStudy regenerates the §2.3 memory decomposition.
func BenchmarkMeasurementStudy(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		_, fp := menos.PaperLlamaWorkload(), menos.PaperLlamaWorkload().ClientFootprint()
		total = fp.Total()
	}
	b.ReportMetric(float64(total)/(1<<30), "total-GiB")
}

// BenchmarkFig5 regenerates persistent-memory scaling and reports the
// Llama saving at 4 clients (paper: 72.2%).
func BenchmarkFig5(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		red := experiments.Fig5Reduction()
		saving = red["Llama 2-7B"]
		_ = experiments.Fig5()
	}
	b.ReportMetric(saving*100, "llama-saving-%")
}

// BenchmarkFig6 regenerates per-round times and reports the vanilla
// Llama collapse at 4 clients (paper: 154.4 s vs 6.0 s).
func BenchmarkFig6(b *testing.B) {
	var vanilla, menosSecs float64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSweep(benchOpts())
		figs, err := experiments.Fig6(s)
		if err != nil {
			b.Fatal(err)
		}
		llama := figs[1]
		vanilla = llama.Series[0].Y[len(llama.Series[0].Y)-1]
		menosSecs = llama.Series[1].Y[len(llama.Series[1].Y)-1]
	}
	b.ReportMetric(vanilla, "vanilla-llama4-s")
	b.ReportMetric(menosSecs, "menos-llama4-s")
}

// BenchmarkTable1 regenerates communication times (paper: ~6.4 s OPT,
// ~3.2 s Llama, flat in client count).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSweep(benchOpts())
		if _, err := experiments.Table1(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates computation times (paper: Menos grows
// with clients, vanilla flat).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSweep(benchOpts())
		if _, err := experiments.Table2(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates scheduling times (paper: vanilla up to
// 121.1 s, Menos ≤ 0.38 s).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSweep(benchOpts())
		if _, err := experiments.Table3(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the on-demand vs memory-preserving
// comparison and reports the preserving policy's scheduling time at
// the largest client count.
func BenchmarkFig7(b *testing.B) {
	var preserve float64
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		s := figs[1].Series[1]
		preserve = s.Y[len(s.Y)-1]
	}
	b.ReportMetric(preserve, "preserve-llama4-sched-s")
}

// BenchmarkFig8 runs the real OPT convergence experiment (split
// clients over TCP vs local baseline) and reports the split-vs-local
// perplexity gap (paper: identical).
func BenchmarkFig8(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gap = res.FinalGap()
	}
	b.ReportMetric(gap, "split-local-ppl-gap")
}

// BenchmarkFig9 runs the real Llama convergence experiment.
func BenchmarkFig9(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gap = res.FinalGap()
	}
	b.ReportMetric(gap, "split-local-ppl-gap")
}

// BenchmarkFig10 regenerates multi-GPU scaling and reports the 10
// CPU-client time on 1 vs 4 GPUs (paper: 11.2 s vs 6.6 s).
func BenchmarkFig10(b *testing.B) {
	var one, four float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		one = fig.Series[0].Y[len(fig.Series[0].Y)-1]
		four = fig.Series[1].Y[len(fig.Series[1].Y)-1]
	}
	b.ReportMetric(one, "10clients-1gpu-s")
	b.ReportMetric(four, "10clients-4gpu-s")
}

// BenchmarkAblationMemoryPolicy sweeps the four Fig. 3 policies.
func BenchmarkAblationMemoryPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMemoryPolicy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchedulerPolicy sweeps the scheduler disciplines.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSchedulerPolicy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro-benchmarks of load-bearing primitives ----

// BenchmarkMatMul measures the tensor engine's matmul kernel at a
// transformer-typical shape.
func BenchmarkMatMul(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.NewNormal(rng, 1, 128, 256)
	w := tensor.NewNormal(rng, 1, 256, 256)
	y := tensor.New(128, 256)
	b.SetBytes(128 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMul(y, x, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBodyForward measures a tiny model's server-side no-grad
// forward (the Fig. 3(d) first pass).
func BenchmarkBodyForward(b *testing.B) {
	benchBody(b, false)
}

// BenchmarkBodyForwardBackward measures re-forward plus backward (the
// Fig. 3(d) second pass).
func BenchmarkBodyForwardBackward(b *testing.B) {
	benchBody(b, true)
}

func benchBody(b *testing.B, backward bool) {
	cfg := model.OPTTiny()
	m, err := model.New(tensor.NewRNG(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, body, _, err := m.Split(1)
	if err != nil {
		b.Fatal(err)
	}
	batch, seq := 4, 32
	x := tensor.NewNormal(tensor.NewRNG(2), 0.5, batch*seq, cfg.Dim)
	dy := tensor.NewNormal(tensor.NewRNG(3), 0.1, batch*seq, cfg.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !backward {
			if _, _, err := body.Forward(x, batch, seq, false); err != nil {
				b.Fatal(err)
			}
			continue
		}
		_, cache, err := body.Forward(x, batch, seq, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := body.Backward(cache, dy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerDecision measures one submit+complete cycle; the
// paper reports <0.1 ms per decision.
func BenchmarkSchedulerDecision(b *testing.B) {
	s := sched.New(1<<40, sched.PolicyFCFSBackfill)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Submit("c", sched.KindBackward, 1<<30, func() {}); err != nil {
			b.Fatal(err)
		}
		s.Complete("c")
	}
}

// BenchmarkCodecForwardReq measures encoding+decoding an
// activation-sized protocol frame.
func BenchmarkCodecForwardReq(b *testing.B) {
	rng := tensor.NewRNG(1)
	msg := &split.ForwardReq{
		Iter: 1, Batch: 4, Seq: 32,
		Activations: tensor.NewNormal(rng, 1, 128, 64),
	}
	var buf bytes.Buffer
	if err := split.WriteMessage(&buf, msg); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := split.WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := split.ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedIteration measures discrete-event throughput: how
// fast one simulated Menos fine-tuning round of 4 Llama clients runs
// in wall time.
func BenchmarkSimulatedIteration(b *testing.B) {
	w := menos.PaperLlamaWorkload()
	for i := 0; i < b.N; i++ {
		_, err := splitsim.Run(splitsim.Config{
			Mode:       splitsim.ModeMenos,
			Clients:    splitsim.HomogeneousClients(4, w, costmodel.ClientGPUPerf()),
			Iterations: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitStepTCP measures one full real split fine-tuning
// iteration over loopback TCP (client input/output sections + server
// body + protocol).
func BenchmarkSplitStepTCP(b *testing.B) {
	dep, err := menos.NewDeployment(menos.DeploymentConfig{
		Model:      menos.OPTTiny(),
		WeightSeed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	addr, err := dep.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	c, err := menos.Dial(addr, menos.ClientConfig{
		ClientID:   "bench",
		Model:      menos.OPTTiny(),
		WeightSeed: 42,
		Adapter:    menos.DefaultLoRA(),
		Batch:      4, Seq: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	tok, err := data.NewCharTokenizer(data.Shakespeare(), 96)
	if err != nil {
		b.Fatal(err)
	}
	tokens, err := tok.Encode(data.Shakespeare())
	if err != nil {
		b.Fatal(err)
	}
	loader, err := data.NewLoader(tokens, 4, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, targets := loader.Next()
		if _, err := c.Step(ids, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the Fig. 3 memory-pattern quantification
// and reports the on-demand duty cycle (lower = memory free for other
// clients most of the time).
func BenchmarkFig3(b *testing.B) {
	var duty float64
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Policy == splitsim.PolicyOnDemand {
				duty = row.DutyCycle
			}
		}
	}
	b.ReportMetric(duty, "on-demand-duty-cycle")
}

// BenchmarkGenerate measures windowed full-reforward decoding.
func BenchmarkGenerate(b *testing.B) {
	m, err := model.New(tensor.NewRNG(1), model.OPTTiny())
	if err != nil {
		b.Fatal(err)
	}
	prompt := []int{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(tensor.NewRNG(2), prompt, 24, 0); err != nil {
			b.Fatal(err)
		}
	}
}
