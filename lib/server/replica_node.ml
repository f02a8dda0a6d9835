(* A replica node = one replication client (pulling the stream from the
   primary, materialising the database, persisting a durable copy) plus
   one read-only server over that database (paper §3.6's readable
   secondary).

   The two halves share a single Rwlock, but only the client's apply
   path takes it (the writer side, around each batch). After each
   applied batch the apply path publishes a COW snapshot of the
   materialised database; the server's dispatch serves every read from
   the latest published snapshot without locking, so reads never observe
   a half-applied batch and never block the stream at all. Before the
   first batch lands nothing is published and dispatch falls back to the
   reader side of the lock.

   The client losing the primary (crash, network) does not stop the
   node: reads keep being served from the last applied state while the
   client reconnects with backoff. Only a fatal condition (divergence,
   misconfiguration, injected replica crash) stops the client — the
   server still serves, and the metrics expose [connected 0] plus the
   last error so an operator can decide to promote. *)

type t = {
  client : Repl.Client.t;
  server : Server.t;
  lock : Rwlock.t;
}

let start ?(config = Server.default_config) ~primary_host ~primary_port () =
  match
    Repl.Client.open_dir ~primary_host ~primary_port ~dir:config.Server.dir ()
  with
  | Error e -> Error (Server.Startup e)
  | Ok client -> (
      let lock = Rwlock.create () in
      let get_db () = Repl.Client.database client in
      let primary = Printf.sprintf "%s:%d" primary_host primary_port in
      match Server.start_replica ~config ~primary ~get_db ~lock () with
      | Error e ->
          Repl.Client.close client;
          Error e
      | Ok server ->
          Metrics.register_lines (Server.metrics server) (fun () ->
              Repl.Client.metric_lines client);
          Ok { client; server; lock })

let client t = t.client
let port t = Server.port t.server
let request_shutdown t = Server.request_shutdown t.server
let request_stats t = Server.request_stats t.server

(* Blocks until shutdown is requested (or the server crashes via a fault
   injection). The replication client runs on its own thread; each of its
   writer sections ends by publishing the newly materialised state as the
   read dispatch's served snapshot — still under the lock, so a reader on
   the pre-publish fallback path can never interleave with the apply. *)
let run ?dump_metrics_to t =
  let with_write f =
    Rwlock.write t.lock (fun () ->
        let r = f () in
        Server.refresh_snapshot t.server;
        r)
  in
  let th =
    Thread.create
      (fun () -> try Repl.Client.run t.client ~with_write with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Repl.Client.stop t.client;
      Thread.join th;
      Repl.Client.close t.client)
    (fun () -> Server.run ?dump_metrics_to t.server)

let run_async ?dump_metrics_to t =
  Thread.create (fun () -> try run ?dump_metrics_to t with _ -> ()) ()

let shutdown t th =
  request_shutdown t;
  Thread.join th
