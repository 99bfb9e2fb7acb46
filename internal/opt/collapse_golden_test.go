package opt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/cases"
	"logicregression/internal/circuit"
)

// collapseGolden is the sha256 of the Collapse netlist of every built-in
// case circuit at the default Config. Collapse decides per output whether
// the BDD fits the node budget and whether the ISOP fits the cube budget,
// so these hashes pin the BDD kernel's node counts as well as its covers:
// a kernel that allocates nodes in a different order or number changes
// which outputs collapse, and the netlist with them.
var collapseGolden = map[string]string{
	"case_1":  "dab58984fcbd2edfa9aaf01e97df5b5e8094050f7175ea4f617e9786ee8bf1a5",
	"case_2":  "0d789a1fc59412a8990446eb44dc3e5bab462f89b1416dde82ccd8a6e55f63d1",
	"case_3":  "3a23ab639e38371ed2851c5f4bb11a35cefec54d0c9093342395f570f071f5ea",
	"case_4":  "9f5ce87d78da8467de46accbeace89d23dd9b8d56a8522e227a4de8fcf12d8ab",
	"case_5":  "82b146917e42e81b39da06e45a544d264e71ebf7152b9c770f27604a020725a9",
	"case_6":  "23775f6bcb3a49378aae6d8f62fbfbc788f8745c59c1389c66b80b6f6393d474",
	"case_7":  "5bce084c1c482ac14ccfa92c55155f62c15fcfebb72944ccc0a5af1ec99211c4",
	"case_8":  "84081878ec2c44a72d8af44f0a356093ea4929312054b4ad6ca18951d62da517",
	"case_9":  "0aa64378c5855f46a610956eb2b663b254fcbfe835ce07696cb2f1d0800f0883",
	"case_10": "cb385a5427385d3e30f41f05a388ee0f17bcce1cb7bde8d05a3edd7378783435",
	"case_11": "9ae488d380b5773e5147cbc2f8b08770f1a1889a07691931b1b346e172f6508c",
	"case_12": "a0c14b103ac2b55ec70c4ade4910b44195f873549a154c3da55da4cff920200c",
	"case_13": "34f96c1487aee283f4e96a51d78f2c9c724500a342eaf5bee26ec3a13baad2a1",
	"case_14": "b0e8ac98942742d02d6f84bdefd2b27a919aec134adca59ece9c41cde7e5293d",
	"case_15": "f5bf8f552c0b4473b928e701280eaff5d25858607edf6d8ed61fc6f5cf29a5f1",
	"case_16": "3440f71bfd64af2f2534731d2d8583026e60fc41354ca61a16c69b419eae2612",
	"case_17": "8e3ae438611cc4dfcd5ab833b60a67a84320d8d8f9f7b6f9f8393a05d24d9efd",
	"case_18": "021ab407e5b18dedbfb8f8eae7614e49a3229b5e9d63c6f8cf961b0775d69e2f",
	"case_19": "422187d9013c31f82d657d197f5c4b3d6624d71524c065495ec7c65875097a66",
	"case_20": "8233a30bffcf448fde8850dfaf85164a46f7e12abdc9424a37313ee9bc4249f9",
}

func TestCollapseGoldenNetlists(t *testing.T) {
	for _, cs := range cases.All() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			out, _ := Collapse(aig.FromCircuit(cs.Circuit), Config{})
			var buf bytes.Buffer
			if err := circuit.WriteNetlist(&buf, out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got, want := hex.EncodeToString(sum[:]), collapseGolden[cs.Name]; got != want {
				t.Errorf("Collapse netlist sha256 = %s, want %s", got, want)
			}
		})
	}
}
