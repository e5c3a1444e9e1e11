package ops

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"step/internal/graph"
	"step/internal/shape"
)

// fnProgram is a three-node IR: a count source feeding one op node named
// "bad" that carries fn, drained by a sink.
func fnProgram(op, fn string) string {
	attrs := map[string]string{
		"map":     `"opts":{}`,
		"accum":   `"b":1,"opts":{}`,
		"flatmap": `"b":1,"inner_dims":[{"kind":"ragged","size":{"sym":"N"}},{"kind":"ragged","size":{"sym":"C"}}]`,
	}[op]
	return fmt.Sprintf(`{"version":%q,"nodes":[`+
		`{"op":"count-source","name":"in","outputs":[{"id":0}],"attrs":{"n":2}},`+
		`{"op":%q,"name":"bad","inputs":[0],"outputs":[{"id":1}],"attrs":{"fn":%s,%s}},`+
		`{"op":"sink","name":"s","inputs":[1]}]}`, graph.IRVersion, op, fn, attrs)
}

// TestLibraryFnArgsRejectedAtLoad: every registry entry bounds its own
// typed argument, so a hostile function reference fails at CompileIR
// with an error naming the node instead of panicking or allocating at
// run time.
func TestLibraryFnArgsRejectedAtLoad(t *testing.T) {
	long := strings.Repeat("0,", graph.MaxIRCount) + "0"
	cases := []struct {
		name, op, fn, want string
	}{
		{"kv table too long", "flatmap", `{"name":"kv-chunks","arg":{"chunk":1,"kv_lens":[` + long + `]}}`, "entries"},
		{"negative kv length", "flatmap", `{"name":"kv-chunks","arg":{"chunk":4,"kv_lens":[8,-1]}}`, "kv_lens[1]"},
		{"kv length past the chunk bound", "flatmap", `{"name":"kv-chunks","arg":{"chunk":1,"kv_lens":[65537]}}`, "kv_lens[0]"},
		{"kv chunk 0", "flatmap", `{"name":"kv-chunks","arg":{"chunk":0,"kv_lens":[8]}}`, "chunk 0"},
		{"kv arg unknown field", "flatmap", `{"name":"kv-chunks","arg":{"chunk":4,"kv_lens":[8],"pad":1}}`, "pad"},
		{"strip count 0", "flatmap", `{"name":"strip-addrs","arg":0}`, "strips 0"},
		{"strip count too large", "flatmap", `{"name":"strip-addrs","arg":65537}`, "strips 65537"},
		{"retile-streamify chunk 0", "flatmap", `{"name":"retile-streamify","arg":0}`, "chunk 0"},
		{"attn out width 0", "map", `{"name":"attn-chunk","arg":{"out_width":0,"flops":4}}`, "out_width 0"},
		{"attn negative flops", "map", `{"name":"attn-chunk","arg":{"out_width":8,"flops":-4}}`, "flops -4"},
		{"qkv negative flops", "map", `{"name":"qkv","arg":-1}`, "flops -1"},
		{"non-integer strip count", "flatmap", `{"name":"strip-addrs","arg":2.5}`, "number 2.5"},
		{"non-integer kv chunk", "flatmap", `{"name":"kv-chunks","arg":{"chunk":1.5,"kv_lens":[8]}}`, "number 1.5"},
		{"non-integer split chunk", "flatmap", `{"name":"split-cols","arg":4.0}`, "number 4.0"},
		{"accum fn under map", "map", `{"name":"elemadd"}`, "AccumFn, not a MapFn"},
		{"map fn under flatmap", "flatmap", `{"name":"qkv","arg":4}`, "MapFn, not a FlatMapFn"},
		{"unknown fn", "map", `{"name":"no-such-fn"}`, `unknown fn "no-such-fn"`},
		{"arg on a parameterless fn", "map", `{"name":"silu","arg":3}`, "silu"},
		{"retile type not a dtype", "accum", `{"name":"retile-row","arg":{"kind":"tile"}}`, "rows and cols"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ir, err := graph.ParseProgramIR([]byte(fnProgram(c.op, c.fn)))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = graph.CompileIR(ir)
			if err == nil {
				t.Fatal("hostile function reference compiled")
			}
			if !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name node \"bad\" and %q", err, c.want)
			}
		})
	}

	// The same references, well-formed, load.
	for _, fn := range []string{
		`{"name":"kv-chunks","arg":{"chunk":4,"kv_lens":[8,0,65536]}}`,
		`{"name":"strip-addrs","arg":3}`,
	} {
		ir, err := graph.ParseProgramIR([]byte(fnProgram("flatmap", fn)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graph.CompileIR(ir); err != nil {
			t.Errorf("%s: %v", fn, err)
		}
	}
}

// TestLibraryFnArgsRefusedAtEncode: the encoder refuses an argument the
// loader would refuse, so every IR a program emits loads again.
func TestLibraryFnArgsRefusedAtEncode(t *testing.T) {
	g := graph.New()
	in := CountSource(g, "in", 2)
	kv := make([]int, graph.MaxIRCount+1)
	out := FlatMap(g, "addrs", in, 1, KVChunksFn(64, kv), []shape.Dim{shape.NamedRagged("N"), shape.NamedRagged("C")})
	Sink(g, "s", out)
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.IR(); err == nil || !strings.Contains(err.Error(), "addrs") {
		t.Fatalf("IR() = %v, want an error naming node addrs", err)
	}
}

// TestFnRefEncoding pins the wire form of function references: the
// parameterless and scalar-argument refs keep the bytes of the untyped
// {"name","arg"} form, so committed IR keeps its content address.
func TestFnRefEncoding(t *testing.T) {
	for _, c := range []struct {
		ref  FnRef
		want string
	}{
		{MatmulFn().IR, `{"name":"matmul"}`},
		{RetileRowFn().IR, `{"name":"retile-row"}`},
		{ScaleFn(0).IR, `{"name":"scale"}`},
		{ScaleFn(0.1).IR, `{"name":"scale","arg":0.10000000149011612}`},
		{RetileStreamifyFn(4).IR, `{"name":"retile-streamify","arg":4}`},
		{StripAddrsFn(3).IR, `{"name":"strip-addrs","arg":3}`},
		{KVChunksFn(64, []int{100, 0}).IR, `{"name":"kv-chunks","arg":{"chunk":64,"kv_lens":[100,0]}}`},
		{AttnChunkFn(8, 640).IR, `{"name":"attn-chunk","arg":{"out_width":8,"flops":640}}`},
		{RetileColToFn(graph.StaticTile(2, 4)).IR,
			`{"name":"retile-col","arg":{"kind":"tile","rows":{"size":{"const":2}},"cols":{"size":{"const":4}}}}`},
	} {
		b, err := json.Marshal(c.ref)
		if err != nil {
			t.Fatalf("%s: %v", c.ref.Name, err)
		}
		if string(b) != c.want {
			t.Errorf("%s encodes as %s, want %s", c.ref.Name, b, c.want)
		}
	}
}
