package main

import (
	"math/rand/v2"
	"sort"

	"dptrace/internal/trace"
	"dptrace/internal/tracegen"
)

// scanTraceScale multiplies tracegen's default hotspot configuration
// (about 1.7·10⁵ packets) to about 10⁶ packets.
const scanTraceScale = 6

// hotspotTrace generates the scan-mix trace from seed.
func hotspotTrace(seed uint64, scale float64) []trace.Packet {
	cfg := tracegen.DefaultHotspotConfig()
	cfg.Seed = seed
	cfg.Sessions = int(float64(cfg.Sessions) * scale)
	cfg.BackgroundTotal = int(float64(cfg.BackgroundTotal) * scale)
	packets, _ := tracegen.Hotspot(cfg)
	return packets
}

// Synthetic traffic for the live-monitor datasets: a client pool
// talking to a server pool on a few service ports.
var (
	synthPorts = []uint16{80, 443, 53, 22, 25, 8080}
	// synthPortWeights sums to 100.
	synthPortWeights = []int{40, 30, 12, 8, 5, 5}
)

const (
	synthClients = 2000
	synthServers = 200
)

// synthPackets generates n packets starting at time t0 (µs).
func synthPackets(rng *rand.Rand, n int, t0 int64) []trace.Packet {
	ps := make([]trace.Packet, n)
	t := t0
	for i := range ps {
		t += 1 + rng.Int64N(200)
		// Clients are Zipf-ish: low indices send far more.
		c := int(float64(synthClients) * rng.Float64() * rng.Float64())
		s := rng.IntN(synthServers)
		w := rng.IntN(100)
		port := synthPorts[len(synthPorts)-1]
		for j, pw := range synthPortWeights {
			if w < pw {
				port = synthPorts[j]
				break
			}
			w -= pw
		}
		proto := uint8(trace.ProtoTCP)
		if port == 53 {
			proto = trace.ProtoUDP
		}
		length := uint16(40 + rng.IntN(120))
		if rng.IntN(3) == 0 {
			length = uint16(1000 + rng.IntN(500))
		}
		ps[i] = trace.Packet{
			Time:    t,
			SrcIP:   trace.MakeIPv4(10, 1, byte(c>>8), byte(c)),
			DstIP:   trace.MakeIPv4(192, 168, byte(s>>8), byte(s)),
			SrcPort: uint16(1024 + rng.IntN(60000)),
			DstPort: port,
			Proto:   proto,
			Flags:   trace.FlagACK,
			Seq:     rng.Uint32(),
			Len:     length,
		}
	}
	return ps
}

// topPorts returns the n most frequent destination ports, busiest first.
func topPorts(ps []trace.Packet, n int) []int {
	counts := map[int]int{}
	for i := range ps {
		counts[int(ps[i].DstPort)]++
	}
	return topKeys(counts, n, func(a, b int) bool { return a < b })
}

// topSources returns the n most frequent source addresses, busiest
// first.
func topSources(ps []trace.Packet, n int) []string {
	counts := map[trace.IPv4]int{}
	for i := range ps {
		counts[ps[i].SrcIP]++
	}
	var out []string
	for _, ip := range topKeys(counts, n, func(a, b trace.IPv4) bool { return a < b }) {
		out = append(out, ip.String())
	}
	return out
}

// topKeys returns the n keys with the highest counts, ties broken by
// less so the choice is deterministic.
func topKeys[K comparable](counts map[K]int, n int, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if ci, cj := counts[keys[i]], counts[keys[j]]; ci != cj {
			return ci > cj
		}
		return less(keys[i], keys[j])
	})
	return keys[:min(n, len(keys))]
}
