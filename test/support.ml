(* Helpers shared by the suites: repository paths that resolve from any
   working directory, and campaign values cut down to what a test
   runs. *)

(* [rel] under the working directory or its nearest ancestor that has
   it: under [dune runtest] the working directory is the build tree's
   copy of test/, beside the staged fixtures and below the staged
   baselines; under [dune exec test/main.exe] from the repository root
   both sit below it.  [rel] itself when no ancestor has it. *)
let find_up rel =
  let rec up dir =
    let here = Filename.concat dir rel in
    if Sys.file_exists here then here
    else
      let parent = Filename.dirname dir in
      if parent = dir then rel else up parent
  in
  up (Sys.getcwd ())

let fixtures_dir = find_up (Filename.concat "test" "fixtures")
let baselines_dir = find_up "baselines"

(* A campaign core at n = 4, t = 1 from seed 1, with the runner's own
   drop rate and step bound unless given. *)
let core ?drop ?max_steps ~seeds size =
  { Sweep.seeds; seed_base = 1; n = 4; t = 1; size; drop; max_steps }

(* The campaign with only the cells [keep] accepts, in order. *)
let only keep (c : ('c, 'r) Sweep.campaign) =
  { c with Sweep.cells = List.filter keep c.cells }
