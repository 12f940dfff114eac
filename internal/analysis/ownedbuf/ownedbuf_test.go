package ownedbuf_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/ownedbuf"
)

func TestOwnedbuf(t *testing.T) {
	analysistest.Run(t, "testdata/src", ownedbuf.Analyzer, "a")
}

func TestSharedReadOnly(t *testing.T) {
	analysistest.Run(t, "testdata/src", ownedbuf.Analyzer, "sharedro")
}
