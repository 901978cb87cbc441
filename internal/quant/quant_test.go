package quant

import "testing"

func TestPrecisionProperties(t *testing.T) {
	if Int8.BytesPerParam() != 1 || Int4.BytesPerParam() != 0.5 {
		t.Fatal("bytes per param")
	}
	if Int8.String() != "int8" || Int4.String() != "int4" {
		t.Fatal("strings")
	}
	if Precision(0).String() == "" || Precision(0).BytesPerParam() != 4 {
		t.Fatal("unknown precision")
	}
}
