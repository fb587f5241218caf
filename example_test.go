package edgereasoning_test

import (
	"fmt"
	"time"

	"edgereasoning"
)

// Deploy a model and predict its latency with the fitted analytical
// model (Eqn 3).
func Example() {
	platform := edgereasoning.NewOrinPlatform()
	dep, err := platform.Deploy(edgereasoning.DSR1Qwen14B)
	if err != nil {
		panic(err)
	}
	// The fitted model answers latency questions in microseconds — the
	// paper's reason for building it (a hardware sweep takes days).
	fmt.Printf("180-token prompt, 256 output tokens -> %.1f s; %.3f s between tokens at 512 context\n",
		dep.PredictLatency(180, 256), dep.PredictTBT(512))
	// The inversion: how many tokens fit a 20-second deadline?
	budget := dep.MaxTokensWithin(180, 20*time.Second)
	fmt.Println(budget > 50 && budget < 200)
	// Output:
	// 180-token prompt, 256 output tokens -> 50.3 s; 0.194 s between tokens at 512 context
	// true
}

// The planner answers Fig 1's question: the optimal recipe under a
// latency budget.
func ExamplePlatform_PlanRecipe() {
	platform := edgereasoning.NewOrinPlatform()
	recipe, ok, err := platform.PlanRecipe(edgereasoning.MMLURedux, 2*time.Second)
	if err != nil || !ok {
		panic(err)
	}
	// Tight budgets are served by small direct models (§V-A).
	fmt.Println(recipe.Latency <= 2.0)
	fmt.Println(recipe.Accuracy > 0.3)
	// Output:
	// true
	// true
}

// The catalog carries the paper's full model zoo.
func ExampleModels() {
	for _, m := range edgereasoning.Models() {
		if m.ID == edgereasoning.DSR1Llama8B {
			fmt.Printf("%s: %.1fB params, reasoning=%v\n",
				m.DisplayName, float64(m.Params)/1e9, m.Reasoning)
		}
	}
	// Output: DSR1-Llama-8B: 8.0B params, reasoning=true
}

// Edge economics at the paper's rates: the §III-B single-batch profile
// bills to $0.302 per million tokens.
func ExampleEdgeCost() {
	perMillion := edgereasoning.EdgeCost(0.0317*3.6e6, 4358, 195624)
	fmt.Printf("$%.2f\n", perMillion)
	// Output: $0.30
}

// Evaluating a model twin on a benchmark under token control.
func ExampleDeployment_Evaluate() {
	platform := edgereasoning.NewOrinPlatform()
	dep, err := platform.Deploy(edgereasoning.DSR1Qwen14B)
	if err != nil {
		panic(err)
	}
	res, err := dep.Evaluate(edgereasoning.MMLURedux, edgereasoning.NoReasoning(), 1)
	if err != nil {
		panic(err)
	}
	// Table XI: 14B NR scores 69.0% at ~180.7 tokens.
	fmt.Println(res.Accuracy > 0.66 && res.Accuracy < 0.72)
	// Output: true
}

// Fleet cost, the §III-B economics study: serve the paper's AIME2024
// profile (30 questions, ~6,520 output tokens each) on DeepScaleR-1.5B at
// batch 1 and batch 30, then bill a fleet-month against a $60/1M-token
// cloud API. Edge batch-30 serving lands two orders of magnitude under
// the cloud price.
func Example_fleetCost() {
	platform := edgereasoning.NewOrinPlatform()
	dep, err := platform.Deploy(edgereasoning.DeepScaleR)
	if err != nil {
		panic(err)
	}
	const (
		queries      = 30
		promptTokens = 150
		outputTokens = 6520
		cloudPerM    = 60.0 // o1-preview output pricing, $/1M tokens
	)
	b1, err := dep.ServeBatch(queries, promptTokens, outputTokens, 1)
	if err != nil {
		panic(err)
	}
	b30, err := dep.ServeBatch(queries, promptTokens, outputTokens, 30)
	if err != nil {
		panic(err)
	}
	edge1 := edgereasoning.EdgeCost(b1.Energy, b1.WallTime, b1.Tokens)
	edge30 := edgereasoning.EdgeCost(b30.Energy, b30.WallTime, b30.Tokens)

	fmt.Println("per 30 queries       batch 1      batch 30")
	fmt.Printf("wall time            %7.0f s    %7.0f s   (%.1fx faster)\n",
		b1.WallTime, b30.WallTime, b1.WallTime/b30.WallTime)
	fmt.Printf("energy               %7.4f kWh  %7.4f kWh\n", b1.Energy/3.6e6, b30.Energy/3.6e6)
	fmt.Printf("user TPS             %7.1f      %7.1f\n", b1.UserTPS, b30.UserTPS)
	fmt.Printf("cost per 1M tokens   $%7.3f     $%7.3f\n", edge1, edge30)

	// Scale to a fleet-month: 2,000 queries/day for 30 days.
	const fleetQueries = 2000 * 30
	tokens := float64(fleetQueries) * (promptTokens + outputTokens)
	cloudBill := tokens / 1e6 * cloudPerM
	edgeBill := tokens / 1e6 * edge30
	fmt.Printf("fleet-month of %d queries: cloud $%.0f, edge $%.2f (%.0fx cheaper)\n",
		fleetQueries, cloudBill, edgeBill, cloudBill/edgeBill)
	// Output:
	// per 30 queries       batch 1      batch 30
	// wall time               5356 s        295 s   (18.1x faster)
	// energy                0.0281 kWh   0.0026 kWh
	// user TPS                36.5         22.2
	// cost per 1M tokens   $  0.356     $  0.020
	// fleet-month of 60000 queries: cloud $24012, edge $8.15 (2945x cheaper)
}

// Pareto explorer: sweep every calibrated {model, token-control, scaling}
// recipe on MMLU-Redux, print the accuracy-latency Pareto frontier, and
// pick the best recipe in each of the paper's three operating regimes
// (§V-A).
func Example_paretoExplorer() {
	platform := edgereasoning.NewOrinPlatform()
	all, err := platform.Recipes(edgereasoning.MMLURedux)
	if err != nil {
		panic(err)
	}
	front, err := platform.Frontier(edgereasoning.MMLURedux)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d recipes, %d on the Pareto frontier:\n", len(all), len(front))
	for _, r := range front {
		fmt.Printf("%7.2fs  %5.1f%%  $%.3f  %s\n", r.Latency, r.Accuracy*100, r.CostPerM, r.Label())
	}

	regimes := []struct {
		name   string
		lo, hi float64
	}{
		{"sub-5s (real-time)", 0, 5},
		{"5-30s (interactive)", 5, 30},
		{">30s (deliberative)", 30, 1e9},
	}
	for _, reg := range regimes {
		best := edgereasoning.Recipe{Accuracy: -1}
		for _, r := range all {
			if r.Latency > reg.lo && r.Latency <= reg.hi && r.Accuracy > best.Accuracy {
				best = r
			}
		}
		fmt.Printf("%-20s %s (%.1f%% @ %.1fs)\n", reg.name, best.Label(), best.Accuracy*100, best.Latency)
	}
	// Output:
	// 35 recipes, 6 on the Pareto frontier:
	//    0.98s   46.0%  $0.003  Qwen2.5-1.5B-it Direct
	//    4.33s   60.9%  $0.020  Qwen2.5-7B-it Direct
	//    8.71s   71.5%  $0.040  Qwen2.5-14B-it Direct
	//   73.22s   77.2%  $0.142  DSR1-Qwen-14B 256-NC
	//   77.42s   80.1%  $0.055  DSR1-Qwen-14B-W4 Base
	//  257.38s   80.6%  $0.193  DSR1-Qwen-14B Base
	// sub-5s (real-time)   Qwen2.5-7B-it Direct (60.9% @ 4.3s)
	// 5-30s (interactive)  Qwen2.5-14B-it Direct (71.5% @ 8.7s)
	// >30s (deliberative)  DSR1-Qwen-14B Base (80.6% @ 257.4s)
}

// Robot assistant, the paper's motivating scenario (§I): a household
// robot's tasks range from sub-second reflexes to minutes of planning.
// The planner picks the optimal recipe for each budget, and the latency
// model maps each deadline to a token budget for the on-board models.
func Example_robotAssistant() {
	platform := edgereasoning.NewOrinPlatform()
	tasks := []struct {
		request string
		budget  time.Duration
	}{
		{"Avoid that obstacle now!", 1 * time.Second},
		{"Can you help me prepare dinner within 5 minutes?", 20 * time.Second},
		{"Plan my weekly schedule.", 2 * time.Minute},
		{"Write a detailed study plan for my exams.", 10 * time.Minute},
	}
	for _, tk := range tasks {
		recipe, ok, err := platform.PlanRecipe(edgereasoning.MMLURedux, tk.budget)
		if err != nil {
			panic(err)
		}
		if !ok {
			fmt.Printf("%q (budget %s) -> no recipe; fall back to reflexes\n", tk.request, tk.budget)
			continue
		}
		fmt.Printf("%q (budget %s) -> %s: %.1f%%, %.2fs, %.0f J, $%.3f/1M tokens\n", tk.request, tk.budget,
			recipe.Label(), recipe.Accuracy*100, recipe.Latency, recipe.EnergyPerQ, recipe.CostPerM)
	}

	// For deadline-critical execution the robot pairs a budget-aware
	// model (L1) with the latency model inversion: deadline -> tokens.
	for _, id := range []edgereasoning.ModelID{
		edgereasoning.L1Max, edgereasoning.DSR1Llama8B, edgereasoning.DSR1Qwen14B,
	} {
		dep, err := platform.Deploy(id)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s", id)
		for _, d := range []time.Duration{2 * time.Second, 10 * time.Second, 60 * time.Second} {
			fmt.Printf("  %s->%4d tok", d, dep.MaxTokensWithin(128, d))
		}
		fmt.Println()
	}
	// Output:
	// "Avoid that obstacle now!" (budget 1s) -> Qwen2.5-1.5B-it Direct: 46.0%, 0.98s, 16 J, $0.003/1M tokens
	// "Can you help me prepare dinner within 5 minutes?" (budget 20s) -> Qwen2.5-14B-it Direct: 71.5%, 8.71s, 211 J, $0.040/1M tokens
	// "Plan my weekly schedule." (budget 2m0s) -> DSR1-Qwen-14B-W4 Base: 80.1%, 77.42s, 1849 J, $0.055/1M tokens
	// "Write a detailed study plan for my exams." (budget 10m0s) -> DSR1-Qwen-14B Base: 80.6%, 257.38s, 6927 J, $0.193/1M tokens
	// l1-max          2s->  72 tok  10s-> 370 tok  1m0s->2221 tok
	// dsr1-llama-8b   2s->  16 tok  10s->  91 tok  1m0s-> 556 tok
	// dsr1-qwen-14b   2s->   8 tok  10s->  49 tok  1m0s-> 307 tok
}

// SLA serving, Takeaway #6 in action: each request's deadline is
// inverted through the fitted latency model (Eqn 3) into a hard token
// budget for the budget-aware L1 model, the request is served through
// the engine at that worst-case length, and the deadline hit rate is
// audited. The last lines show the accuracy each deadline can buy.
func Example_slaServing() {
	platform := edgereasoning.NewOrinPlatform()
	dep, err := platform.Deploy(edgereasoning.L1Max)
	if err != nil {
		panic(err)
	}
	requests := []struct {
		name     string
		prompt   int
		deadline time.Duration
	}{
		{"collision check", 64, 800 * time.Millisecond},
		{"grasp planning", 128, 2 * time.Second},
		{"route replan", 256, 5 * time.Second},
		{"task decomposition", 200, 10 * time.Second},
		{"dialogue turn", 96, 3 * time.Second},
		{"tight reflex", 48, 200 * time.Millisecond},
	}
	met := 0
	for _, r := range requests {
		budget := dep.MaxTokensWithin(r.prompt, r.deadline)
		if budget <= 0 {
			fmt.Printf("%-18s  %6s  reject: prefill alone misses\n", r.name, r.deadline)
			continue
		}
		gen, err := dep.Generate(r.prompt, budget)
		if err != nil {
			panic(err)
		}
		ok := gen.TotalTime() <= r.deadline.Seconds()
		if ok {
			met++
		}
		fmt.Printf("%-18s  %6s  %4d tok  %5.2fs  met=%v\n", r.name, r.deadline, budget, gen.TotalTime(), ok)
	}
	fmt.Printf("deadline hit rate %d/%d\n", met, len(requests))

	for _, d := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		budget := dep.MaxTokensWithin(128, d)
		res, err := dep.Evaluate(edgereasoning.MMLURedux, edgereasoning.Hard(budget), 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%6s: %4d-token budget -> %.1f%% accuracy\n", d, budget, res.Accuracy*100)
	}
	// Output:
	// collision check      800ms    28 tok   0.80s  met=true
	// grasp planning          2s    72 tok   1.98s  met=true
	// route replan            5s   183 tok   4.98s  met=true
	// task decomposition     10s   369 tok   9.98s  met=true
	// dialogue turn           3s   110 tok   3.00s  met=true
	// tight reflex         200ms     5 tok   0.18s  met=true
	// deadline hit rate 6/6
	//  500ms:   16-token budget -> 9.2% accuracy
	//     2s:   72-token budget -> 12.5% accuracy
	//     8s:  296-token budget -> 22.7% accuracy
}
