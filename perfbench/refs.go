package main

// l1Digests are the SHA-256 digests of the canonical level-1 reports the
// profile-l1 workload produces (its apps and its warm-up app). The golden
// corpus holds level-3 reports only. After a deliberate model change, a
// profile-l1 run prints each new digest in its mismatch lines.
var l1Digests = map[profileKey]string{
	{gpu: "gtx1070", suite: "rodinia", app: "myocyte", level: 1}: "7cc4706d27f40533eaec9a5bb26017e01760c1abcccfda213ced9c87babf7270",
	{gpu: "rtx4000", suite: "rodinia", app: "myocyte", level: 1}: "bded52ca180600ec63e84c9416ac06f09d06f9424f56d130ad4208fbb5ba3049",
	{gpu: "rtx4000", suite: "rodinia", app: "lud", level: 1}:     "1ed13be8814c93507822d009f8dcc51684fe58ec5bff74addc41016f0b628fd5",
	{gpu: "gtx1070", suite: "rodinia", app: "srad_v1", level: 1}: "9f4f01737827e30ad390d385d1210bfb48e090b5245dbd4da987b1bc2f7abaa9",
	{gpu: "gtx1070", suite: "altis", app: "maxflops", level: 1}:  "4127b7f08d804b9bfeef060c2f6692112a027d33087e84c8fc9193321b1f4c92",
}
