package speckey

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/trace"
)

func baseSpec() Spec {
	cfg := arch.PaperConfig(1)
	return Spec{
		Benchmark: "gcc_r", Scheme: "Fence", Variant: "EP", Conds: 15,
		Seed: 1, Warmup: 2000, Measure: 8000, Config: &cfg,
	}
}

// TestKeyStable pins the canonical encoding's shape: identical specs give
// identical keys, and the version prefix is present.
func TestKeyStable(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	if a.Key() != b.Key() {
		t.Fatal("identical specs produced different keys")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a.Key())
	}
	if !strings.HasPrefix(a.Canonical(), Version+"|") {
		t.Fatalf("canonical encoding %q lacks the version prefix", a.Canonical())
	}
}

// TestKeyDistinguishesEveryField mutates each Spec field in turn and
// checks the key changes: a collision requires identical specs.
func TestKeyDistinguishesEveryField(t *testing.T) {
	base := baseSpec()
	mutations := map[string]func(*Spec){
		"Benchmark":   func(s *Spec) { s.Benchmark = "mcf_r" },
		"Scheme":      func(s *Spec) { s.Scheme = "DOM" },
		"Variant":     func(s *Spec) { s.Variant = "LP" },
		"Conds":       func(s *Spec) { s.Conds = 1 },
		"Seed":        func(s *Spec) { s.Seed = 2 },
		"Warmup":      func(s *Spec) { s.Warmup = 2001 },
		"Measure":     func(s *Spec) { s.Measure = 8001 },
		"TraceBuffer": func(s *Spec) { s.TraceBuffer = 1024 },
		"Config":      func(s *Spec) { s.Config = nil },
		"Attack":      func(s *Spec) { s.Attack = AttackCanonical(&trace.Attack{AttackKind: "mcv"}) },
	}
	for name, mutate := range mutations {
		s := baseSpec()
		mutate(&s)
		if s.Key() == base.Key() {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestConsistencyAxisKeys pins the compatibility contract of the
// consistency axis: "" and "TSO" encode identically (and byte-identically
// to the encoding that existed before the axis, so warm caches survive),
// while "RC" produces a distinct key for otherwise-identical specs.
func TestConsistencyAxisKeys(t *testing.T) {
	legacy := baseSpec()
	tso := baseSpec()
	tso.Consistency = "TSO"
	rc := baseSpec()
	rc.Consistency = "RC"

	if legacy.Canonical() != tso.Canonical() {
		t.Fatalf("explicit TSO changed the encoding:\n  %q\nvs\n  %q",
			legacy.Canonical(), tso.Canonical())
	}
	// Reconstruct the pre-axis encoding by hand: the field list ended at
	// "attack". A TSO spec must still produce exactly those bytes.
	if c := legacy.Canonical(); !strings.HasSuffix(c, "|attack=0:") {
		t.Fatalf("TSO encoding gained trailing fields: %q", c)
	}
	if strings.Contains(legacy.Canonical(), "consistency") {
		t.Fatalf("TSO encoding mentions the consistency field: %q", legacy.Canonical())
	}
	if legacy.Key() == rc.Key() {
		t.Fatal("RC spec collided with the TSO spec")
	}
	if !strings.HasSuffix(rc.Canonical(), "|consistency=2:RC") {
		t.Fatalf("RC encoding lacks the consistency field: %q", rc.Canonical())
	}
	// The RCP scheme is an ordinary Scheme string and must key distinctly.
	rcp := baseSpec()
	rcp.Scheme = "RCP"
	if rcp.Key() == legacy.Key() {
		t.Fatal("RCP scheme collided with the base scheme")
	}
	rcpRC := rcp
	rcpRC.Consistency = "RC"
	keys := map[string]string{
		"base": legacy.Key(), "rc": rc.Key(), "rcp": rcp.Key(), "rcp-rc": rcpRC.Key(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("specs %s and %s share key %s", prev, name, k)
		}
		seen[k] = name
	}
}

// TestKeyInjectiveAcrossFieldBoundaries checks that the length-prefixed
// encoding keeps adjacent string fields apart: moving a byte from one
// field into the next must change the key even though the concatenated
// bytes are identical.
func TestKeyInjectiveAcrossFieldBoundaries(t *testing.T) {
	a := Spec{Benchmark: "ab", Scheme: ""}
	b := Spec{Benchmark: "a", Scheme: "b"}
	if a.Key() == b.Key() {
		t.Fatal("field-boundary shift collided")
	}
}

// TestConfigCanonicalCoversEveryField mutates each arch.Config field via
// reflection and checks the canonical config encoding changes, so a
// config tweak can never alias another config's cached results.
func TestConfigCanonicalCoversEveryField(t *testing.T) {
	base := arch.PaperConfig(8)
	baseEnc := ConfigCanonical(&base)
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		}
		if enc := ConfigCanonical(&cfg); enc == baseEnc {
			t.Errorf("mutating Config.%s did not change the encoding",
				v.Type().Field(i).Name)
		}
	}
	if ConfigCanonical(nil) != "" {
		t.Fatal("nil config must encode empty")
	}
}

// TestConfigFieldSetPinned fails when arch.Config gains a field, forcing
// the author to confirm the canonical encoding covers it (reflection does
// that automatically) and to consider whether Version must be bumped to
// retire keys derived before the field existed.
func TestConfigFieldSetPinned(t *testing.T) {
	if n := reflect.TypeOf(arch.Config{}).NumField(); n != 36 {
		t.Fatalf("arch.Config has %d fields (expected 36): update this pin and "+
			"bump speckey.Version if cached results are invalidated", n)
	}
}

// TestAttackCanonicalCoversEveryField mutates each trace.Attack field via
// reflection and checks the canonical attack encoding changes, so a new
// kernel knob always joins the content-addressed run identity.
func TestAttackCanonicalCoversEveryField(t *testing.T) {
	base := trace.Attack{AttackKind: "spectre_v1", Secret: 1, Iters: 16,
		BurstLen: 24, TargetSlice: 2}
	baseEnc := AttackCanonical(&base)
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		atk := base
		f := reflect.ValueOf(&atk).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		}
		if enc := AttackCanonical(&atk); enc == baseEnc {
			t.Errorf("mutating Attack.%s did not change the encoding",
				v.Type().Field(i).Name)
		}
	}
	if AttackCanonical(nil) != "" {
		t.Fatal("nil attack must encode empty")
	}
}

// TestAttackFieldSetPinned mirrors the Config pin for trace.Attack.
func TestAttackFieldSetPinned(t *testing.T) {
	if n := reflect.TypeOf(trace.Attack{}).NumField(); n != 5 {
		t.Fatalf("trace.Attack has %d fields (expected 5): update this pin and "+
			"bump speckey.Version if cached results are invalidated", n)
	}
}

// refCanonical is the reference encoding Canonical must reproduce byte for
// byte: every key already issued (job IDs, cache addresses, warm stores)
// was spelled by it, through fmt and a reflect walk per call.
func refCanonical(s Spec) string {
	var b strings.Builder
	b.WriteString(Version)
	field := func(name, val string) {
		fmt.Fprintf(&b, "|%s=%d:%s", name, len(val), val)
	}
	field("bench", s.Benchmark)
	field("scheme", s.Scheme)
	field("variant", s.Variant)
	field("conds", strconv.FormatUint(uint64(s.Conds), 10))
	field("seed", strconv.FormatUint(s.Seed, 10))
	field("warmup", strconv.FormatInt(s.Warmup, 10))
	field("measure", strconv.FormatInt(s.Measure, 10))
	field("trace", strconv.Itoa(s.TraceBuffer))
	cfg := ""
	if s.Config != nil {
		cfg = refStruct(reflect.ValueOf(*s.Config))
	}
	field("config", cfg)
	field("attack", s.Attack)
	if s.Consistency != "" && s.Consistency != "TSO" {
		field("consistency", s.Consistency)
	}
	return b.String()
}

// refStruct is the reference name=value walk of arch.Config and
// trace.Attack.
func refStruct(v reflect.Value) string {
	t := v.Type()
	var b strings.Builder
	for i := 0; i < t.NumField(); i++ {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t.Field(i).Name)
		b.WriteByte('=')
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			fmt.Fprintf(&b, "%d:%s", f.Len(), f.String())
		case reflect.Int:
			b.WriteString(strconv.FormatInt(f.Int(), 10))
		case reflect.Uint64:
			b.WriteString(strconv.FormatUint(f.Uint(), 10))
		case reflect.Float64:
			b.WriteString(strconv.FormatFloat(f.Float(), 'g', -1, 64))
		case reflect.Bool:
			if f.Bool() {
				b.WriteByte('t')
			} else {
				b.WriteByte('f')
			}
		default:
			panic(fmt.Sprintf("unsupported field kind %s", f.Kind()))
		}
	}
	return b.String()
}

// randomize sets every field of the struct v points to from rng: integers
// of every magnitude and sign, floats including the special values, random
// bytes for strings.
func randomize(rng *rand.Rand, v reflect.Value) {
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(randomString(rng))
		case reflect.Int:
			f.SetInt(rng.Int64() >> rng.IntN(64))
			if rng.IntN(2) == 0 {
				f.SetInt(-f.Int())
			}
		case reflect.Uint64:
			f.SetUint(rng.Uint64() >> rng.IntN(64))
		case reflect.Float64:
			specials := []float64{0, math.Copysign(0, -1), 1e-300, 5e-324, math.MaxFloat64,
				math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 2.5, 1e21, 123456789}
			x := specials[rng.IntN(len(specials))]
			if rng.IntN(2) == 0 {
				x = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20))
			}
			f.SetFloat(x)
		case reflect.Bool:
			f.SetBool(rng.IntN(2) == 0)
		default:
			panic(fmt.Sprintf("randomize: field kind %s", f.Kind()))
		}
	}
}

func randomString(rng *rand.Rand) string {
	const alphabet = "ab|=:;0 \xff\u00e9"
	b := make([]byte, rng.IntN(12))
	for i := range b {
		b[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return string(b)
}

// TestCanonicalMatchesReference holds the encoder to the reference over
// random specs (random machine configurations, every attack kernel as the
// security tier builds it and random attacks, both consistency spellings)
// and over the paper machines: same bytes, so the same keys.
func TestCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	var attacks []*trace.Attack
	for _, kernel := range []string{"spectre_v1", "alias", "mcv", "interference"} {
		for secret := uint64(0); secret < 2; secret++ {
			attacks = append(attacks, &trace.Attack{AttackKind: kernel, Secret: secret})
		}
	}
	for i := 0; i < 64; i++ {
		var a trace.Attack
		randomize(rng, reflect.ValueOf(&a))
		attacks = append(attacks, &a)
	}
	for _, a := range attacks {
		if got, want := AttackCanonical(a), refStruct(reflect.ValueOf(*a)); got != want {
			t.Fatalf("AttackCanonical(%+v)\n got %q\nwant %q", *a, got, want)
		}
	}
	var configs []*arch.Config
	for _, cores := range []int{0, 1, 8} {
		cfg := arch.PaperConfig(cores)
		configs = append(configs, &cfg)
	}
	for i := 0; i < 500; i++ {
		var cfg arch.Config
		randomize(rng, reflect.ValueOf(&cfg))
		configs = append(configs, &cfg)
	}
	for i, cfg := range configs {
		s := Spec{Benchmark: randomString(rng), Scheme: randomString(rng), Variant: randomString(rng),
			Conds: uint8(rng.Uint32()), Seed: rng.Uint64(), Warmup: rng.Int64() - rng.Int64(),
			Measure: rng.Int64(), TraceBuffer: int(rng.Int32()) - int(rng.Int32()), Config: cfg,
			Consistency: []string{"", "TSO", "RC", randomString(rng)}[i%4]}
		if i%3 == 0 {
			s.Config = nil
		}
		if i%2 == 0 {
			s.Attack = AttackCanonical(attacks[i%len(attacks)])
		}
		want := refCanonical(s)
		if got := s.Canonical(); got != want {
			t.Fatalf("spec %d:\n got %q\nwant %q", i, got, want)
		}
		if got := ConfigCanonical(cfg); cfg != nil && got != refStruct(reflect.ValueOf(*cfg)) {
			t.Fatalf("ConfigCanonical of config %d: %q", i, got)
		}
		if sum := sha256.Sum256([]byte(want)); s.Key() != hex.EncodeToString(sum[:]) {
			t.Fatalf("spec %d: Key is not the SHA-256 of the reference encoding", i)
		}
	}
}
