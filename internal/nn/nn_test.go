package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp quick's wild values into a sane range.
			logits[i] = math.Mod(v, 50)
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		out := make([]float64, len(logits))
		Softmax(logits, out)
		sum := 0.0
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	logits := []float64{1000, 1001, 999}
	out := make([]float64, 3)
	Softmax(logits, out)
	for _, p := range out {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("softmax overflowed: %v", out)
		}
	}
	if !(out[1] > out[0] && out[0] > out[2]) {
		t.Errorf("ordering lost: %v", out)
	}
}

func TestActivationDerivatives(t *testing.T) {
	acts := []Activation{ReLU{}, Logistic{}, Identity{}}
	for _, act := range acts {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			y := act.F(x)
			got := act.Deriv(x, y)
			h := 1e-6
			want := (act.F(x+h) - act.F(x-h)) / (2 * h)
			if math.Abs(got-want) > 1e-4 {
				t.Errorf("%s'(%v) = %v, numeric %v", act.Name(), x, got, want)
			}
		}
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range []string{"relu", "logistic", "identity"} {
		act, err := ActivationByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if act.Name() != name {
			t.Errorf("round trip %s -> %s", name, act.Name())
		}
	}
	for _, name := range []string{"swish", "tanh"} {
		if _, err := ActivationByName(name); err == nil {
			t.Errorf("unknown activation %q accepted", name)
		}
	}
}

// TestGradientCheck verifies backprop against numerical differentiation on a
// small network — the canonical correctness test for an NN implementation.
func TestGradientCheck(t *testing.T) {
	for _, act := range []Activation{Logistic{}, ReLU{}} {
		net, err := NewMLP([]int{3, 5, 4}, act, 7)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{0.3, -0.6, 0.9}
		label := 2

		net.zeroGrads()
		if _, err := net.lossGrad(x, label); err != nil {
			t.Fatal(err)
		}

		lossAt := func() float64 {
			logits, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			probs := make([]float64, len(logits))
			Softmax(logits, probs)
			return -math.Log(probs[label])
		}

		const h = 1e-6
		checked := 0
		for li, l := range net.Layers {
			for wi := range l.W {
				orig := l.W[wi]
				l.W[wi] = orig + h
				up := lossAt()
				l.W[wi] = orig - h
				down := lossAt()
				l.W[wi] = orig
				numeric := (up - down) / (2 * h)
				analytic := l.gw[wi]
				if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Errorf("%s layer %d W[%d]: analytic %v vs numeric %v",
						act.Name(), li, wi, analytic, numeric)
				}
				checked++
			}
			for bi := range l.B {
				orig := l.B[bi]
				l.B[bi] = orig + h
				up := lossAt()
				l.B[bi] = orig - h
				down := lossAt()
				l.B[bi] = orig
				numeric := (up - down) / (2 * h)
				if analytic := l.gb[bi]; math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Errorf("%s layer %d B[%d]: analytic %v vs numeric %v",
						act.Name(), li, bi, analytic, numeric)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no parameters checked")
		}
	}
}

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP([]int{5}, ReLU{}, 1); err == nil {
		t.Error("single-layer spec accepted")
	}
	if _, err := NewMLP([]int{5, 0, 3}, ReLU{}, 1); err == nil {
		t.Error("zero-width layer accepted")
	}
	net, err := NewMLP([]int{9, 64, 42}, Logistic{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.InputDim() != 9 || net.OutputDim() != 42 {
		t.Errorf("dims %d/%d, want 9/42", net.InputDim(), net.OutputDim())
	}
	// Paper network size: 9*64+64 + 64*42+42 parameters.
	want := 9*64 + 64 + 64*42 + 42
	if got := net.ParamCount(); got != want {
		t.Errorf("param count %d, want %d", got, want)
	}
}

func TestStorageBytes(t *testing.T) {
	net, err := NewMLP([]int{9, 64, 42}, Logistic{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's envelope: the 9-64-42 model's float64 weights must fit in
	// the device's SRAM (tens of KB).
	if bytes := net.ParamCount() * 8; bytes > 64*1024 {
		t.Errorf("model %dB exceeds the paper's SRAM envelope", bytes)
	}
}

func TestForwardRejectsWrongDim(t *testing.T) {
	net, _ := NewMLP([]int{3, 2}, ReLU{}, 1)
	if _, err := net.Forward([]float64{1, 2}); err == nil {
		t.Error("wrong input dim accepted")
	}
	if _, err := net.lossGrad([]float64{1, 2, 3}, 9); err == nil {
		t.Error("out-of-range label accepted")
	}
}

// toyDataset builds a linearly-separable-ish 3-class problem.
func toyDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		class := rng.Intn(3)
		x := make([]float64, 4)
		for j := range x {
			x[j] = rng.NormFloat64() * 0.3
		}
		x[class] += 2 // class signal
		d.X = append(d.X, x)
		d.Y = append(d.Y, class)
	}
	return d
}

func TestTrainingLearnsToyProblemWithEveryOptimizer(t *testing.T) {
	train := toyDataset(300, 1)
	test := toyDataset(100, 2)
	opts := []Optimizer{
		NewSGD(0.2),
		NewMomentum(0.2, 0.9),
		NewAdam(0.02),
	}
	for _, opt := range opts {
		net, err := NewMLP([]int{4, 16, 3}, Logistic{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := Train(net, train, test, TrainConfig{
			Iterations: 30, BatchSize: 16, Optimizer: opt, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", opt.Name(), err)
		}
		if hist.FinalAcc < 0.9 {
			t.Errorf("%s: final accuracy %.2f < 0.9", opt.Name(), hist.FinalAcc)
		}
		if hist.FinalLoss > hist.Points[0].TrainLoss {
			t.Errorf("%s: loss did not decrease (%.3f -> %.3f)",
				opt.Name(), hist.Points[0].TrainLoss, hist.FinalLoss)
		}
	}
}

func TestTrainHistoryShape(t *testing.T) {
	train := toyDataset(60, 5)
	test := toyDataset(20, 6)
	net, _ := NewMLP([]int{4, 8, 3}, ReLU{}, 1)
	hist, err := Train(net, train, test, TrainConfig{
		Iterations: 10, BatchSize: 8, Optimizer: NewAdam(0), Seed: 1, EvalEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Points) != 5 {
		t.Errorf("history has %d points, want 5 (every 2 of 10)", len(hist.Points))
	}
	if hist.Points[len(hist.Points)-1].Iteration != 10 {
		t.Error("final iteration not recorded")
	}
	if hist.TrainingTime <= 0 {
		t.Error("training time not recorded")
	}
}

func TestTrainValidation(t *testing.T) {
	net, _ := NewMLP([]int{4, 3}, ReLU{}, 1)
	good := toyDataset(10, 1)
	if _, err := Train(net, good, Dataset{}, TrainConfig{Iterations: 0, Optimizer: NewSGD(0)}); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Train(net, good, Dataset{}, TrainConfig{Iterations: 1}); err == nil {
		t.Error("nil optimizer accepted")
	}
	if _, err := Train(net, Dataset{}, Dataset{}, TrainConfig{Iterations: 1, Optimizer: NewSGD(0)}); err == nil {
		t.Error("empty training set accepted")
	}
	bad := Dataset{X: [][]float64{{1, 2, 3, 4}}, Y: []int{7}}
	if _, err := Train(net, bad, Dataset{}, TrainConfig{Iterations: 1, Optimizer: NewSGD(0)}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestDatasetSplitAndShuffle(t *testing.T) {
	d := toyDataset(100, 9)
	train, test := d.Split(0.7)
	if train.Len() != 70 || test.Len() != 30 {
		t.Errorf("split %d/%d, want 70/30", train.Len(), test.Len())
	}
	// Shuffle is deterministic per seed and preserves pairing.
	d2 := toyDataset(100, 9)
	d.Shuffle(5)
	d2.Shuffle(5)
	for i := range d.X {
		if d.Y[i] != d2.Y[i] {
			t.Fatal("shuffle not deterministic")
		}
		// The class signal must still be at index Y[i].
		if d.X[i][d.Y[i]] < 1 {
			t.Fatal("shuffle broke X/Y pairing")
		}
	}
}

func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 per optimizer; gradient = 2(w-3).
	opts := []Optimizer{
		NewSGD(0.1),
		NewMomentum(0.05, 0.8),
		NewAdam(0.3),
	}
	for _, opt := range opts {
		w := []float64{-4}
		g := []float64{0}
		for i := 0; i < 500; i++ {
			g[0] = 2 * (w[0] - 3)
			opt.Step(0, w, g)
		}
		if math.Abs(w[0]-3) > 0.05 {
			t.Errorf("%s converged to %v, want 3", opt.Name(), w[0])
		}
	}
}

func TestMomentumAcceleratesOnRavine(t *testing.T) {
	// On an ill-conditioned quadratic momentum should reach the optimum
	// faster than plain SGD at the same learning rate.
	steps := func(opt Optimizer) int {
		w := []float64{-4}
		g := []float64{0}
		for i := 0; i < 10000; i++ {
			g[0] = 0.02 * (w[0] - 3) // shallow gradient
			opt.Step(0, w, g)
			if math.Abs(w[0]-3) < 0.01 {
				return i
			}
		}
		return 10000
	}
	sgd := steps(NewSGD(0.5))
	mom := steps(NewMomentum(0.5, 0.9))
	if mom >= sgd {
		t.Errorf("momentum (%d steps) not faster than SGD (%d steps)", mom, sgd)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	net, err := NewMLP([]int{9, 64, 42}, Logistic{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 9)
	for i := range x {
		x[i] = float64(i) / 9
	}
	wantPred, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	wantLogits, _ := net.Forward(x)
	wantCopy := append([]float64(nil), wantLogits...)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotPred, err := back.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if gotPred != wantPred {
		t.Errorf("prediction changed after round trip: %d vs %d", gotPred, wantPred)
	}
	gotLogits, _ := back.Forward(x)
	for i := range wantCopy {
		if math.Abs(gotLogits[i]-wantCopy[i]) > 1e-12 {
			t.Fatalf("logit %d changed: %v vs %v", i, gotLogits[i], wantCopy[i])
		}
	}
	// The loaded network must be trainable.
	if _, err := back.TrainBatch([][]float64{x}, []int{3}, NewAdam(0)); err != nil {
		t.Errorf("loaded network not trainable: %v", err)
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := []string{
		``,
		`{"version":2,"layers":[]}`,
		`{"version":1,"layers":[]}`,
		`{"version":1,"layers":[{"in":2,"out":1,"activation":"relu","w":[1],"b":[1]}]}`,                                                                          // W wrong len
		`{"version":1,"layers":[{"in":2,"out":1,"activation":"nope","w":[1,2],"b":[1]}]}`,                                                                        // bad act
		`{"version":1,"layers":[{"in":0,"out":1,"activation":"relu","w":[],"b":[1]}]}`,                                                                           // bad shape
		`{"version":1,"layers":[{"in":2,"out":3,"activation":"relu","w":[1,2,3,4,5,6],"b":[1,2,3]},{"in":2,"out":1,"activation":"identity","w":[1,2],"b":[1]}]}`, // mismatched chain
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: corrupt model accepted", i)
		}
	}
}

func TestAccuracyAndLossEmptySets(t *testing.T) {
	net, _ := NewMLP([]int{4, 3}, ReLU{}, 1)
	if acc, err := net.Accuracy(nil, nil); err != nil || acc != 0 {
		t.Errorf("empty accuracy = %v, %v", acc, err)
	}
	if loss, err := net.Loss(nil, nil); err != nil || loss != 0 {
		t.Errorf("empty loss = %v, %v", loss, err)
	}
}

func TestTrainBatchValidation(t *testing.T) {
	net, _ := NewMLP([]int{2, 2}, ReLU{}, 1)
	if _, err := net.TrainBatch(nil, nil, NewSGD(0)); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := net.TrainBatch([][]float64{{1, 2}}, []int{0, 1}, NewSGD(0)); err == nil {
		t.Error("mismatched batch accepted")
	}
}
