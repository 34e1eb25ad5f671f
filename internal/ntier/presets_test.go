package ntier

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/traceio"
)

// presetDigests pins every scenario preset's simulator output at seed 1,
// 6 s plus a 2 s ramp: the SHA-256 of the visit JSONL and of the
// ground-truth JSON, each written exactly as ntiersim's -out and -truth
// write them. A change to any preset constant (convoy hold, stampede
// hit rate, slow-start factor, ...) moves a digest here before it moves
// a verdict anywhere else.
var presetDigests = map[string]struct{ visits, truth string }{
	"cache-stampede": {
		visits: "48947ebc8ddf596d5ab9700e2b735da9fd20d9e6a68dd29a7e7217d190f4a068",
		truth:  "8491b110af6e70d217f348b768e86882a3c6052d1d5610ca2432b50708b7b8ba",
	},
	"conn-pool": {
		visits: "50de53890a7df90b05358840fadf09e5a60390eb112ebc95e0b1dbed4165a162",
		truth:  "9bfe80b74146d30c971115d5d5899628199e879d35e8255e886f8546ae87b7f2",
	},
	"lock-convoy": {
		visits: "6a7ee4f7e6d20194bf6d012438632ae1efcb6e0fbccf2b9017fc7861dd723ec7",
		truth:  "94e5a5c25c5d1c1f6b51dec9ddc9296a784a73e91cb7fdf3c2d8dae4da2d7953",
	},
	"noisy-neighbor": {
		visits: "eaf9d1da10c8e22285569a9b78b23efda7aa1ed63dfdf78aa2ba1d783eb9f474",
		truth:  "e23683779ad89c0e0a80f0e65adfd2a1a783c420c092af7e195b3ac6892979b2",
	},
	"open-loop": {
		visits: "be90e282ccac3fe4e7186e6f35f12fb0a75ab5b6c8f28ee8f4a7498dac5b4acc",
		truth:  "e8b661db30a0c51570c57fd1a6e9b5997e0ee3b0d2427f3eb0a8ac7ce77330b8",
	},
	"slow-start": {
		visits: "1d5d22f67faad090d2a11e9c7402e5e25e06872e585f36334e294c8a6115f744",
		truth:  "77d4a5c4112151b1dbcffe0ae23b5ffadf2b950cef85b2f78bf705deb9238b08",
	},
}

func TestScenarioPresetDigests(t *testing.T) {
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg, err := ScenarioPreset(name, 1, 6*simnet.Second, 2*simnet.Second)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			var visits bytes.Buffer
			if err := traceio.WriteVisits(&visits, res.Visits); err != nil {
				t.Fatal(err)
			}
			var truth bytes.Buffer
			enc := json.NewEncoder(&truth)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res.GroundTruth); err != nil {
				t.Fatal(err)
			}
			want, ok := presetDigests[name]
			if !ok {
				t.Fatalf("no pinned digest for preset %q", name)
			}
			if got := sha256Hex(visits.Bytes()); got != want.visits {
				t.Errorf("visit JSONL digest %s, want %s", got, want.visits)
			}
			if got := sha256Hex(truth.Bytes()); got != want.truth {
				t.Errorf("ground-truth JSON digest %s, want %s", got, want.truth)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
