package runtime

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// promSample is one parsed exposition line.
type promSample struct {
	family string // metric name with any histogram suffix removed
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses a Prometheus text dump into its samples and the
// declared type of each family. It fails the test on a malformed line, a
// repeated # TYPE, or a sample of an undeclared family.
func parseProm(t *testing.T, text string) ([]promSample, map[string]string) {
	t.Helper()
	types := map[string]string{}
	var out []promSample
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[f[0]]; dup {
				t.Errorf("family %s declares # TYPE twice", f[0])
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		open := strings.IndexByte(line, '{')
		if sp < 0 || open < 0 || line[sp-1] != '}' {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		s := promSample{name: line[:open], labels: map[string]string{}, value: v}
		for _, kv := range strings.Split(line[open+1:sp-1], ",") {
			k, val, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("malformed label %q in %q", kv, line)
			}
			s.labels[k] = strings.Trim(val, `"`)
		}
		s.family = s.name
		if _, ok := types[s.family]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if f := strings.TrimSuffix(s.name, suf); f != s.name && types[f] == "histogram" {
					s.family = f
				}
			}
		}
		if _, ok := types[s.family]; !ok {
			t.Errorf("sample %q belongs to no declared family", line)
		}
		out = append(out, s)
	}
	return out, types
}

// A 2-PE world with no telemetry session must export a well-formed dump:
// one # TYPE per family, a series for every PE in every family, le
// buckets that never decrease, +Inf equal to _count, and non-empty
// recorder histograms beside the wire counters and health series.
func TestWritePrometheusExposition(t *testing.T) {
	const pes = 2
	var dump strings.Builder
	err := Run(Config{PEs: pes, WorkersPerPE: 2, Lamellae: LamellaeSim}, func(w *World) {
		for i := 0; i < 20; i++ {
			if _, err := BlockOn(w, ExecTyped[uint64](w, 1-w.MyPE(), &echoAM{X: 1})); err != nil {
				panic(err)
			}
		}
		w.WaitAll()
		w.Barrier()
		if w.MyPE() == 0 {
			if err := w.WritePrometheus(&dump); err != nil {
				panic(err)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() {
		t.Fatal("test must run without a telemetry session")
	}
	samples, types := parseProm(t, dump.String())

	pesOf := map[string]map[string]bool{}
	type histKey struct{ family, pe string }
	lastLe := map[histKey]float64{}
	lastCum := map[histKey]float64{}
	inf := map[histKey]float64{}
	count := map[histKey]float64{}
	for _, s := range samples {
		pe := s.labels["pe"]
		if pesOf[s.family] == nil {
			pesOf[s.family] = map[string]bool{}
		}
		pesOf[s.family][pe] = true
		k := histKey{s.family, pe}
		switch {
		case strings.HasSuffix(s.name, "_bucket") && s.labels["le"] == "+Inf":
			inf[k] = s.value
			if s.value < lastCum[k] {
				t.Errorf("%s pe=%s: +Inf %v below the last bucket %v", s.family, pe, s.value, lastCum[k])
			}
		case strings.HasSuffix(s.name, "_bucket"):
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", s.name, s.labels["le"])
			}
			if prev, ok := lastLe[k]; ok && le <= prev {
				t.Errorf("%s pe=%s: le %v not above the previous %v", s.family, pe, le, prev)
			}
			if s.value < lastCum[k] {
				t.Errorf("%s pe=%s le=%v: cumulative count %v decreased from %v", s.family, pe, le, s.value, lastCum[k])
			}
			lastLe[k], lastCum[k] = le, s.value
		case strings.HasSuffix(s.name, "_count") && types[s.family] == "histogram":
			count[k] = s.value
		}
	}
	for fam, typ := range types {
		if len(pesOf[fam]) != pes || !pesOf[fam]["0"] || !pesOf[fam]["1"] {
			t.Errorf("family %s has series for PEs %v, want 0 and 1", fam, pesOf[fam])
		}
		if typ != "histogram" {
			continue
		}
		for pe := 0; pe < pes; pe++ {
			k := histKey{fam, strconv.Itoa(pe)}
			if inf[k] != count[k] {
				t.Errorf("%s pe=%d: +Inf bucket %v != _count %v", fam, pe, inf[k], count[k])
			}
		}
	}
	for _, fam := range []string{"lamellar_wire_retries_total", "lamellar_health_flags_total",
		"lamellar_batch_flushes_total", "lamellar_wire_unacked_frames"} {
		if types[fam] == "" {
			t.Errorf("dump lacks the %s family", fam)
		}
	}
	if types["lamellar_am_round_trip_seconds"] != "histogram" {
		t.Fatal("dump lacks the recorder's round-trip histogram")
	}
	for pe := 0; pe < pes; pe++ {
		if c := count[histKey{"lamellar_am_round_trip_seconds", strconv.Itoa(pe)}]; c != 20 {
			t.Errorf("PE%d round-trip _count = %v, want 20", pe, c)
		}
	}
}
