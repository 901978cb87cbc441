package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestEveryArtifactTableIsWhole builds every artifact menos-bench can
// print and checks that no table had a row truncated by AddRow
// (menos-bench refuses to print one), and that every table renders
// byte-identical to its recorded digest. Figures are checked through the
// table they render as.
func TestEveryArtifactTableIsWhole(t *testing.T) {
	opts := Options{Iterations: 2, Steps: 4, Seed: 1}
	tables := map[string]*Table{}
	add := func(name string, tbl *Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tables[name] = tbl
	}
	addFigs := func(name string, figs []*Figure, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range figs {
			tables[name+"/"+f.Title] = f.Table()
		}
	}

	tables["measurement"] = MeasurementStudy()
	fig3, _, err := Fig3(opts)
	add("fig3", fig3, err)
	addFigs("fig5", Fig5(), nil)
	sweep := NewSweep(opts)
	figs, err := Fig6(sweep)
	addFigs("fig6", figs, err)
	tbl, err := Table1(sweep)
	add("table1", tbl, err)
	tbl, err = Table2(sweep)
	add("table2", tbl, err)
	tbl, err = Table3(sweep)
	add("table3", tbl, err)
	figs, err = Fig7(opts)
	addFigs("fig7", figs, err)
	for name, fn := range map[string]func(Options) (*ConvergenceResult, error){"fig8": Fig8, "fig9": Fig9} {
		res, err := fn(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addFigs(name, []*Figure{res.Fig}, nil)
	}
	fig10, err := Fig10(opts)
	addFigs("fig10", []*Figure{fig10}, err)
	tbl, err = AblationMemoryPolicy(opts)
	add("ablations/memory", tbl, err)
	tbl, err = AblationSchedulerPolicy(opts)
	add("ablations/scheduler", tbl, err)
	tables["ablations/sharing"] = AblationBaseSharing()
	tables["extensions/quantization"] = ExtensionQuantization()
	tbl, err = ExtensionMultiServer(opts)
	add("extensions/multi-server", tbl, err)
	tbl, err = ExtensionHeterogeneousClients(opts)
	add("extensions/heterogeneous", tbl, err)
	tbl, err = OverloadSweep(opts)
	add("overload", tbl, err)
	tbl, err = MultiLoRASweep(opts)
	add("multilora", tbl, err)
	tbl, err = WireSweep(opts)
	add("wire", tbl, err)
	tbl, err = FleetSweep(opts)
	add("fleet", tbl, err)

	for name, tbl := range tables {
		if err := tbl.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(tbl.Rows()) == 0 {
			t.Errorf("%s: no rows", name)
		}
		if strings.HasPrefix(name, "fig8/") || strings.HasPrefix(name, "fig9/") {
			continue // real training: versioned bits (docs/NUMERICS.md)
		}
		sum := sha256.Sum256([]byte(tbl.Render()))
		if got, want := hex.EncodeToString(sum[:]), tableDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s\n%s", name, got, want, tbl.Render())
		}
	}
}

// tableDigests are the SHA-256 of every simulated and analytic table's
// Render() at the options above, as menos-bench prints it. A refactor
// must leave them all alone; a change that means to move a paper number
// re-records the table it moves and says why. Fig. 8 and Fig. 9 are
// real training, whose bits are versioned under
// TestKernelConvergenceParity instead.
var tableDigests = map[string]string{
	"ablations/memory":         "102d065d4200edf89342e526c45af662b4782fb18480c1d40d93c790bb77886b",
	"ablations/scheduler":      "5fc5cfcd78eb2ed0990de6983a0be8a8b21e8de17fc49ff4bf4d4665c3d31e06",
	"ablations/sharing":        "46cb94d54b7b648d8d730b8b81f19cfc7d37fab7e5352bf1de086ad0f7c536d2",
	"extensions/heterogeneous": "1c3054273fb8aef213c8e68e6e2d0446cf5690addfa2e550ff13bb833e0f0fde",
	"extensions/multi-server":  "0da3d9c0809c6b64568fb4f43d26ed083f599d4c59a4746164407f71e41db1c4",
	"extensions/quantization":  "a7b85b4fcb82ffd1ace196353a1b06e2f82ec00c5abcdea7ae09227fee03551f",
	"fig10/Fig. 10: fine-tuning time (s), CPU clients, multi-GPU server": "5a517cd934f4886a57e2799810dfdc282a94cfc93a89520a4ac66b366035682a",
	"fig3": "6a63670904531347fa8209bb9e4b07da4092abf03bb03c6952c10cdd8889c909",
	"fig5/Fig. 5 (Llama 2-7B): persistent GPU memory (GiB) vs clients":    "e327c5f0ea01fb06db9a6d54231ed45c92c289e45f78a8e7c1f3a5e1f31d3861",
	"fig5/Fig. 5 (OPT-1.3B): persistent GPU memory (GiB) vs clients":      "5a8bd6280570df3b17c1a047aa9408f24a3e43c4713acd3fc2f06f24c5e77f0f",
	"fig6/Fig. 6 (Llama 2-7B): per-round fine-tuning time (s) vs clients": "dbd6f03be1639f6d74f29f837bb76f6c00b3e984bcf2e0176c412b698757f241",
	"fig6/Fig. 6 (OPT-1.3B): per-round fine-tuning time (s) vs clients":   "3810fb9c53449f2bc6e8b21f0dd2160c32af15e8fff1f34049394e3d98b63a60",
	"fig7/Fig. 7 (Llama 2-7B): average schedule time (s) vs clients":      "41fd74a51926f5ce480241d6c19aa17df115a6014973ccb23999e05e857b8ea7",
	"fig7/Fig. 7 (OPT-1.3B): average schedule time (s) vs clients":        "ca1bd986bb017a325466600f682566aa758ad3ce6a869ade3f337bd71b7b9e5a",
	"fleet":       "9f13e69011b0de1f1f2ec869778d0d41d446ed5acf70ee14d7f58cdfb6f4b06f",
	"measurement": "37ee71620dfe6aa4bb920414161031fa94a192965038ec6b2901673ae3e1617f",
	"multilora":   "be960887e1e90ad7eed6999a312dabcb73ad1772fb013c0e233505fc1541a81f",
	"overload":    "b87bc6bad03771751827d6694201a52b9ab504b61675803df7340cbe70431a56",
	"table1":      "137ecc95565be0edcce053b44d655e2beb19ff04afd2ad5b92a48977031bf029",
	"table2":      "dd493a27ae54bfb885fec3f93d0bf226baf528b3df967adff8b9558e0c8ace04",
	"table3":      "b01eb8db37d13bcd57accade4eef9efa9e1c68d9e8d49ed69991b44d44fef4f6",
	"wire":        "5e07763ce25b2a59f36b3002b23a59d73c701a4a77f1a407a7ef6db5d434fa72",
}
