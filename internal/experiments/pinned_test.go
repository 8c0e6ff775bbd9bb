package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sperr/internal/grid"
)

// TestFiguresPinned pins the printed tables and charts of the experiments
// whose numbers are deterministic: bit costs, outlier counts and sizes,
// no wall-clock times. They run the production chunk encoder, so any
// change to what the pipeline codes, or to how the experiments read it,
// moves a hash here; a change that should not move them (a refactor) must
// keep every row.
func TestFiguresPinned(t *testing.T) {
	cfg := Config{Dims: grid.D3(48, 48, 48), Seed: 2023, Quick: true}
	for _, tc := range []struct{ id, sha string }{
		{"fig1", "32c39b9399ba258f1029ad23af45de17ec2cacd75197d3bcfc37aeaf64172f4c"},
		{"fig2", "86ecae1fb853a5d474b6998dcce90b151dfde6a0e9505795a8ed1efcdedf4e44"},
		{"fig3", "078a79c05d31dd527b81a4b92d7627bebdb4c52dfe18195b4c7ef085ef869587"},
		{"fig4", "040994e1e464140b5faa7b14966c6c46eacd044184728ae8b2709062e4c0ac28"},
		{"fig11", "f95238f8e180a096b04b5e353aa14548100d56a37f8aeca01d827f0a3ddbf0f4"},
		{"abl-outlier", "7dcdaf7fc5552b40b91025669dde2c5f45434844422f16fca9c885e02e02d3ab"},
		{"abl-lossless", "399009948ea8a5b8ce76699a00b73144c433ac75a4d95321209a80a339ade77a"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			r := ByID(tc.id)(cfg)
			var buf bytes.Buffer
			r.Print(&buf)
			r.PrintCharts(&buf)
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("%s: sha256 %s, want %s\n%s", tc.id, got, tc.sha, buf.String())
			}
		})
	}
}
