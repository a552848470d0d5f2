// Mpegtrace: drive the MMR with MPEG-2-style frame-size traces — the
// workload of the MMR project's follow-on evaluation. A synthetic trace
// with realistic GoP structure and scene-level burstiness is generated
// (or a real frame-size trace can be loaded from disk in the same
// format), replayed through the router's policed VBR path, and the
// resulting per-stream QoS is reported against the trace's own rate
// statistics.
package main

import (
	"fmt"
	"log"
	"os"

	"mmr"
)

func main() {
	// Load a real trace if one is supplied, otherwise synthesize one:
	// 2 minutes of 6 Mbps MPEG-2-like video at 30 fps.
	var tr *mmr.Trace
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr, err = mmr.ParseTrace(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded trace %s\n", os.Args[1])
	} else {
		var err error
		tr, err = mmr.GenerateTrace(mmr.DefaultTraceGenConfig(6*mmr.Mbps, 3600), 2026)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("generated synthetic MPEG-2-like trace (pass a file to replay a real one)")
	}

	fmt.Printf("trace: %d frames, %.1f s, mean %v, peak %v\n",
		len(tr.Frames), tr.Duration(), tr.MeanRate(), tr.PeakRate())
	for kind, st := range tr.Stats() {
		fmt.Printf("  frame type %d: %5d frames, mean %8.0f bits\n", kind, st.Count, st.MeanBits)
	}

	// Six video streams share the router with CBR cross traffic; each
	// stream declares its trace's measured mean as permanent bandwidth and
	// 3x as peak (the concurrency factor oversubscribes peaks, §4.2).
	cfg := mmr.PaperRouterConfig()
	r, err := mmr.NewRouter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		src := mmr.NewTraceSource(tr, cfg.Link, mmr.Rate(3*float64(tr.MeanRate())))
		_, err := r.EstablishWithSource(mmr.ConnSpec{
			Class:    mmr.ClassVBR,
			Rate:     tr.MeanRate(),
			PeakRate: mmr.Rate(3 * float64(tr.MeanRate())),
			In:       i,
			Out:      (i + 4) % cfg.Ports,
			Priority: i % 3,
		}, src)
		if err != nil {
			log.Fatal(err)
		}
	}
	for p := 0; p < cfg.Ports; p++ {
		if _, err := r.Establish(mmr.ConnSpec{
			Class: mmr.ClassCBR, Rate: 55 * mmr.Mbps, In: p, Out: (p + 1) % cfg.Ports,
		}); err != nil {
			log.Fatal(err)
		}
	}

	// ~50 ms of router time: a few GoPs of every stream.
	m := r.Run(50_000, 500_000)

	fmt.Println("\nrouter under trace-driven VBR + CBR cross traffic:")
	fmt.Printf("  VBR delivered %d flits, CBR %d flits (util %.4f)\n",
		m.PerClassDelivered[mmr.ClassVBR], m.PerClassDelivered[mmr.ClassCBR], m.SwitchUtilization)
	fmt.Printf("  delay  mean %.2f cycles, sd %.2f, max %.0f\n",
		m.Delay.Mean(), m.Delay.StdDev(), m.Delay.Max())
	fmt.Printf("  jitter mean %.3f cycles, sd %.3f, max %.0f\n",
		m.Jitter.Mean(), m.Jitter.StdDev(), m.Jitter.Max())
}
